type material = {
  volumetric_heat_j_m3k : float;
}

let default_capacitance = { volumetric_heat_j_m3k = 1.6e6 }

type response = {
  times_s : float array;
  peak_rise_k : float array;
  steady_peak_k : float;
  tau_63_s : float;
}

(* Backward Euler: (G + C/dt) T_{k+1} = P + (C/dt) T_k. C/dt grounds
   every tile of layer iz through rho c_p dz / dt per unit area, so each
   step solves the steady problem shifted by it, under Mesh's engine
   rule; G + C/dt is SPD whenever G is. *)
let step_response cfg ~power ?(material = default_capacitance)
    ?(dt_s = 2e-6) ?(steps = 60) () =
  if dt_s <= 0.0 || steps <= 0 then
    invalid_arg "Transient.step_response: non-positive dt or steps";
  let problem = Mesh.build cfg ~power in
  let p = Mesh.rhs problem in
  let steady = Mesh.solve problem in
  let steady_peak_k = Array.fold_left Float.max 0.0 steady.Mesh.temp in
  let w_m2k =
    Array.map
      (fun l ->
         material.volumetric_heat_j_m3k *. (l.Stack.thickness_um *. 1e-6)
         /. dt_s)
      cfg.Mesh.stack.Stack.layers
  in
  let step = Mesh.shifted problem ~w_m2k in
  (* C/dt per tile, the shift times the tile area as the stencil has it *)
  let extent = Geo.Grid.extent power in
  let tile_m2 =
    (Geo.Rect.width extent /. float_of_int cfg.Mesh.nx *. 1e-6)
    *. (Geo.Rect.height extent /. float_of_int cfg.Mesh.ny *. 1e-6)
  in
  let c_dt = Array.map (fun w -> w *. tile_m2) w_m2k in
  let n = Array.length p in
  let nxy = cfg.Mesh.nx * cfg.Mesh.ny in
  let temp = ref (Array.make n 0.0) in
  let times = Array.make (steps + 1) 0.0 in
  let peaks = Array.make (steps + 1) 0.0 in
  for k = 1 to steps do
    let rhs =
      Array.init n (fun i -> p.(i) +. (c_dt.(i / nxy) *. !temp.(i)))
    in
    temp := (Mesh.solve (Mesh.with_rhs step rhs)).Mesh.temp;
    times.(k) <- float_of_int k *. dt_s;
    peaks.(k) <- Array.fold_left Float.max 0.0 !temp
  done;
  Obs.Metrics.count "thermal.transient.steps" ~by:steps;
  (* time to 63.2% of the steady peak, linear interpolation *)
  let target = 0.632 *. steady_peak_k in
  let tau =
    let rec find k =
      if k > steps then times.(steps) (* not reached within the window *)
      else if peaks.(k) >= target then begin
        (* A flat step — zero power map, or a response that saturated
           within one dt — has no slope to interpolate along; dividing by
           the zero rise would make tau NaN (0/0 when the target is also
           the flat value). The crossing is then at the step itself. *)
        let rise = peaks.(k) -. peaks.(k - 1) in
        if rise <= 0.0 then times.(k)
        else begin
          let frac = (target -. peaks.(k - 1)) /. rise in
          times.(k - 1) +. (frac *. (times.(k) -. times.(k - 1)))
        end
      end
      else find (k + 1)
    in
    find 1
  in
  { times_s = times; peak_rise_k = peaks; steady_peak_k; tau_63_s = tau }
