(* Adjoint sensitivity of a smoothed peak-temperature objective.

   The steady-state solve is linear, G T = P, with G symmetric positive
   definite. For any differentiable objective f(T), the chain rule gives
   df/dP = G^-T (df/dT) = G^-1 (df/dT) — the transpose solve IS a plain
   solve because G is self-adjoint — so the full per-tile sensitivity map
   costs exactly one extra solve of the same problem through
   Mesh.solve_result: modal (the source sits in the power layer alone,
   so one forward transform) unless a solver fault routes it to CG.

   The objective is a log-sum-exp smoothing of the active-layer peak:

     f(T) = (1/beta) log sum_i exp(beta T_i)   over active-layer nodes

   which upper-bounds the true peak, converges to it as beta grows, and
   has the softmax weights as its gradient — a probability distribution
   concentrated on the hottest tiles, so the adjoint source is localized
   exactly where whitespace buys temperature. *)

let default_sharpness = 4.0

type t = {
  forward : Mesh.solution;
  sharpness : float;
  peak_rise_k : float;
  smoothed_peak_k : float;
  lambda : float array;
  sensitivity : Geo.Grid.t;
  cg_iterations : int;
}

(* The stabilized log-sum-exp's two passes over the active layer of a
   solution's field: its peak [tmax] and sum_i exp(beta (T_i - tmax)). *)
let peak_and_exp_sum ~sharpness (s : Mesh.solution) =
  let cfg = s.Mesh.config in
  let zp = cfg.Mesh.stack.Stack.power_layer in
  let tmax = ref neg_infinity in
  for iy = 0 to cfg.Mesh.ny - 1 do
    for ix = 0 to cfg.Mesh.nx - 1 do
      let v = s.Mesh.temp.(Mesh.node_index cfg ~ix ~iy ~iz:zp) in
      if v > !tmax then tmax := v
    done
  done;
  let sum = ref 0.0 in
  for iy = 0 to cfg.Mesh.ny - 1 do
    for ix = 0 to cfg.Mesh.nx - 1 do
      let v = s.Mesh.temp.(Mesh.node_index cfg ~ix ~iy ~iz:zp) in
      sum := !sum +. exp (sharpness *. (v -. !tmax))
    done
  done;
  (!tmax, !sum)

let check_sharpness ~fn sharpness =
  if not (Float.is_finite sharpness) || sharpness <= 0.0 then
    invalid_arg (fn ^ ": sharpness must be positive")

let smoothed_peak ~sharpness s =
  check_sharpness ~fn:"Adjoint.smoothed_peak" sharpness;
  let tmax, sum = peak_and_exp_sum ~sharpness s in
  tmax +. (log sum /. sharpness)

let solve_result ?(sharpness = default_sharpness) ?forward p =
  Obs.Trace.with_span "thermal.adjoint.solve" @@ fun () ->
  check_sharpness ~fn:"Adjoint.solve" sharpness;
  let n = Array.length (Mesh.rhs p) in
  let fwd =
    match forward with
    | Some (s : Mesh.solution) ->
      if Array.length s.Mesh.temp <> n then
        invalid_arg "Adjoint.solve: forward solution does not match problem";
      Ok s
    | None -> Mesh.solve_result p
  in
  match fwd with
  | Error e -> Error e
  | Ok fwd ->
    let cfg = Mesh.config p in
    let zp = cfg.Mesh.stack.Stack.power_layer in
    let peak_rise_k, sum = peak_and_exp_sum ~sharpness fwd in
    let smoothed_peak_k = peak_rise_k +. (log sum /. sharpness) in
    (* adjoint source: df/dT = softmax weights on the active layer, zero
       on every other node *)
    let rhs = Array.make n 0.0 in
    for iy = 0 to cfg.Mesh.ny - 1 do
      for ix = 0 to cfg.Mesh.nx - 1 do
        let node = Mesh.node_index cfg ~ix ~iy ~iz:zp in
        rhs.(node) <-
          exp (sharpness *. (fwd.Mesh.temp.(node) -. peak_rise_k)) /. sum
      done
    done;
    (match Mesh.solve_result (Mesh.with_rhs p rhs) with
     | Error e -> Error e
     | Ok adj ->
       (* power enters the rhs with unit coefficient at the power-layer
          node of its tile, so lambda restricted to that layer IS the
          per-tile df/d(W injected) map — in K/W *)
       let sensitivity = Mesh.active_layer_grid adj in
       Obs.Metrics.count "thermal.adjoint.solves";
       Obs.Metrics.observe "thermal.adjoint.iterations"
         (float_of_int adj.Mesh.cg_iterations);
       Obs.Metrics.observe "thermal.adjoint.peak_sensitivity_k_per_w"
         (Geo.Grid.max_value sensitivity);
       Obs.Metrics.observe "thermal.adjoint.smoothing_gap_k"
         (smoothed_peak_k -. peak_rise_k);
       Ok
         { forward = fwd; sharpness; peak_rise_k;
           smoothed_peak_k; lambda = adj.Mesh.temp; sensitivity;
           cg_iterations = adj.Mesh.cg_iterations })

let solve ?sharpness ?forward p =
  match solve_result ?sharpness ?forward p with
  | Ok a -> a
  | Error e -> Robust.Error.raise_ e
