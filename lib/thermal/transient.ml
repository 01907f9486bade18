type material = {
  volumetric_heat_j_m3k : float;
}

let default_capacitance = { volumetric_heat_j_m3k = 1.6e6 }

type response = {
  times_s : float array;
  peak_rise_k : float array;
  steady_peak_k : float;
  tau_63_s : float;
  cg_iterations : int;
}

(* Heat capacity of one tile of each layer. *)
let layer_capacitances cfg ~extent material =
  let stack = cfg.Mesh.stack in
  let dx = Geo.Rect.width extent /. float_of_int cfg.Mesh.nx *. 1e-6 in
  let dy = Geo.Rect.height extent /. float_of_int cfg.Mesh.ny *. 1e-6 in
  Array.map
    (fun l ->
       let dz = l.Stack.thickness_um *. 1e-6 in
       material.volumetric_heat_j_m3k *. dx *. dy *. dz)
    stack.Stack.layers

(* The backward-Euler operator G + C/dt for one (config, extent), as C/dt
   per layer and the shifted stencil: the fault-free conductance operator
   with C/dt added to each diagonal entry last. Used for the fine system
   and, rediscretized at halved lateral resolution, for the coarse
   multigrid levels. *)
let shifted_operator cfg ~extent ~material ~dt_s =
  let c_dt =
    Array.map (fun c -> c /. dt_s) (layer_capacitances cfg ~extent material)
  in
  (Stencil.shift (Mesh.operator cfg ~extent) c_dt, c_dt)

(* Backward Euler: (G + C/dt) T_{k+1} = P + (C/dt) T_k. The shifted matrix
   is SPD whenever G is, so CG applies; consecutive steps warm-start. *)
let step_response cfg ~power ?(material = default_capacitance)
    ?(dt_s = 2e-6) ?(steps = 60) () =
  if dt_s <= 0.0 || steps <= 0 then
    invalid_arg "Transient.step_response: non-positive dt or steps";
  let problem = Mesh.build cfg ~power in
  let p = Mesh.rhs problem in
  let extent = Geo.Grid.extent power in
  let iterations = ref 0 in
  (* steady state for normalization — through the full solve path (the
     modal engine where it applies, MG-CG and its ladder otherwise) *)
  let steady = Mesh.solve problem in
  iterations := !iterations + steady.Mesh.cg_iterations;
  let steady_peak_k = Array.fold_left Float.max 0.0 steady.Mesh.temp in
  (* one shifted operator for the whole window; its multigrid hierarchy is
     built on the shifted operator itself, with coarse levels
     rediscretizing G + C/dt at halved resolution *)
  let shifted, c_dt = shifted_operator cfg ~extent ~material ~dt_s in
  let n = Stencil.dim shifted in
  let nxy = cfg.Mesh.nx * cfg.Mesh.ny in
  let step_precond =
    Cg.Multigrid
      (Multigrid.build ~fine:shifted
         ~coarse:(fun ~nx ~ny ->
             fst
               (shifted_operator { cfg with Mesh.nx; ny } ~extent ~material
                  ~dt_s))
         ())
  in
  let temp = ref (Array.make n 0.0) in
  let times = Array.make (steps + 1) 0.0 in
  let peaks = Array.make (steps + 1) 0.0 in
  for k = 1 to steps do
    let rhs =
      Array.init n (fun i -> p.(i) +. (c_dt.(i / nxy) *. !temp.(i)))
    in
    let sol =
      Cg.solve shifted ~b:rhs ~tol:1e-10 ~x0:!temp ~precond:step_precond
        ~label:"transient" ()
    in
    iterations := !iterations + sol.Cg.iterations;
    temp := sol.Cg.x;
    times.(k) <- float_of_int k *. dt_s;
    peaks.(k) <- Array.fold_left Float.max 0.0 !temp
  done;
  Obs.Metrics.count "thermal.transient.steps" ~by:steps;
  Obs.Metrics.observe "thermal.transient.iterations"
    (float_of_int !iterations);
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
  { times_s = times; peak_rise_k = peaks; steady_peak_k; tau_63_s = tau;
    cg_iterations = !iterations }
