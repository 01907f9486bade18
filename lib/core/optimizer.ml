type result = {
  plan : Technique.eri_result;
  predicted_peak_k : float;
  evaluations : int;
  blur_evaluations : int;
  adjoint_evaluations : int;
}

(* The optimizer ranks on its own square grid of the flow's stack. *)
let coarse_config flow ~nx =
  { flow.Flow.mesh_config with Thermal.Mesh.nx; ny = nx }

(* Projected-gradient iterations of the gradient guide's allocation. *)
let prepass_steps = 8

(* The nx x nx power map of each trial plan of a run, from the base rows'
   profiles binned once here: O(rows * nx) per trial, no cell re-placed.
   The profile is built before any pool map and only read after, so pool
   size cannot change a plan. *)
let trial_pricer flow ~nx =
  let base = flow.Flow.base_placement in
  let fp = base.Place.Placement.fp in
  let profile =
    Power.Map.row_profile base ~per_cell_w:flow.Flow.per_cell_w ~nx
  in
  fun after ->
    Power.Map.of_row_profile profile
      ~fp:(Place.Floorplan.with_extra_rows fp (List.length after))
      ~rows:(Technique.shifted_rows ~num_rows:fp.Place.Floorplan.num_rows
               after)
      ~ny:nx

(* One trial map's solve on the ranking grid, and its peak. *)
let eval_trial flow ~power ~nx =
  (* cancellation point: candidate solves run at millisecond granularity,
     so a job past its deadline aborts here *)
  Robust.Cancel.check ();
  let solution =
    Flow.solve_power ~mesh_config:(coarse_config flow ~nx) flow power
  in
  let peak =
    (Thermal.Metrics.of_map (Thermal.Mesh.active_layer_grid solution))
      .Thermal.Metrics.peak_rise_k
  in
  (peak, solution)

let evaluate_plan flow ~after ~nx =
  let r = Technique.apply_row_insertions flow.Flow.base_placement after in
  let power =
    Power.Map.power_map r.Technique.eri_placement
      ~per_cell_w:flow.Flow.per_cell_w ~nx ~ny:nx
  in
  fst (eval_trial flow ~power ~nx)

(* The paper's scheme: rank candidates by their predicted peak, each
   priced by the exact modal blur. The blur is computed from the stack
   and the die alone, so no armed fault can reach it; each fault still
   reaches its target, the pool's chunks or the re-score's build and
   solve. *)
let peak_rows flow ~rows ~chunk ~stride ~coarse_nx =
  Obs.Trace.with_span "optimizer.greedy_rows" @@ fun () ->
  let base = flow.Flow.base_placement in
  let num_rows = base.Place.Placement.fp.Place.Floorplan.num_rows in
  let candidates =
    let rec collect r acc = if r >= num_rows then List.rev acc
      else collect (r + stride) (r :: acc)
    in
    collect 0 []
  in
  let num_cands = List.length candidates in
  let cfg = coarse_config flow ~nx:coarse_nx in
  let trial_power = trial_pricer flow ~nx:coarse_nx in
  let blur_evaluations = ref 0 in
  (* the plan is kept reversed: committing a chunk is a prepend, and a
     plan's order is free to both [Technique.shifted_rows] and
     [Technique.apply_row_insertions] *)
  let rev_plan = ref [] in
  let remaining = ref rows in
  while !remaining > 0 do
    let step = min chunk !remaining in
    let trial_of cand =
      List.rev_append (List.init step (fun _ -> cand)) !rev_plan
    in
    (* every trial of this round is the die with the same number of
       extra rows, so one transfer serves all of them *)
    let kernel =
      Thermal.Mesh.blur cfg
        ~extent:
          (Place.Floorplan.with_extra_rows base.Place.Placement.fp
             (List.length !rev_plan + step))
            .Place.Floorplan.core
    in
    blur_evaluations := !blur_evaluations + num_cands;
    (* candidate trials are independent: price them on the pool. The
       list order is preserved, and selection below walks it sequentially
       (strict improvement wins, first wins ties), so parallel and
       sequential runs pick identical plans. *)
    let priced =
      Parallel.Pool.map_list candidates ~f:(fun cand ->
          Thermal.Blur.peak kernel ~power:(trial_power (trial_of cand)))
    in
    let best = ref None in
    List.iter2
      (fun cand peak ->
         match !best with
         | Some (_, best_peak) when best_peak <= peak -> ()
         | _ -> best := Some (cand, peak))
      candidates priced;
    rev_plan := trial_of (fst (Option.get !best));
    remaining := !remaining - step
  done;
  let plan_list = List.rev !rev_plan in
  let final = Technique.apply_row_insertions base plan_list in
  (* re-score the committed plan with one solve, so [predicted_peak_k]
     is a solve result *)
  let peak, _ = eval_trial flow ~power:(trial_power plan_list) ~nx:coarse_nx in
  { plan = final; predicted_peak_k = peak; evaluations = 1;
    blur_evaluations = !blur_evaluations; adjoint_evaluations = 0 }

(* ---- Gradient guide ----------------------------------------------------

   One adjoint solve at the incumbent prices *every* candidate: the
   adjoint field lambda satisfies G lambda = df/dT, so for any trial
   power map P the smoothed peak is, to first order,
   f(P) ~ f(P_inc) + <lambda, P - P_inc>. The incumbent term is common
   to all candidates of a round, so ranking by <lambda, P_c> needs no
   per-candidate solve at all — only the committed chunk is confirmed
   with one exact solve. *)

(* <sensitivity, power>: the candidate's first-order objective up to the
   round-constant incumbent term. Both grids live on the coarse
   evaluation mesh's tile counts; the candidate's die is slightly taller
   than the incumbent's, which is part of the first-order approximation
   the confirmation solve absorbs. *)
let sensitivity_score sens power =
  let acc = ref 0.0 in
  Geo.Grid.iteri power ~f:(fun ~ix ~iy p ->
      acc := !acc +. (Geo.Grid.get sens ~ix ~iy *. p));
  !acc

(* Euclidean projection onto the scaled simplex {x >= 0, sum x = total}
   (sort-based: theta is the largest valid shift of the descending
   cumulative means). *)
let project_simplex x ~total =
  let n = Array.length x in
  let u = Array.copy x in
  Array.sort (fun a b -> Float.compare b a) u;
  let theta = ref 0.0 in
  let css = ref 0.0 in
  for j = 0 to n - 1 do
    css := !css +. u.(j);
    let t = (!css -. total) /. float_of_int (j + 1) in
    if u.(j) -. t > 0.0 then theta := t
  done;
  Array.map (fun v -> Float.max 0.0 (v -. !theta)) x

(* Round a continuous allocation (summing to [total]) to integers by
   largest remainder, ties to the lower candidate index — the same
   first-wins determinism as the peak guide's selection walk. *)
let largest_remainder x ~total =
  let n = Array.length x in
  let counts = Array.map (fun v -> int_of_float (Float.floor v)) x in
  let assigned = Array.fold_left ( + ) 0 counts in
  let rem = Array.mapi (fun i v -> (v -. Float.floor v, i)) x in
  Array.sort
    (fun (a, i) (b, j) ->
       match Float.compare b a with 0 -> compare i j | c -> c)
    rem;
  let missing = max 0 (min n (total - assigned)) in
  for k = 0 to missing - 1 do
    let _, i = rem.(k) in
    counts.(i) <- counts.(i) + 1
  done;
  counts

(* Distribute [step] rows over the candidates from their first-order
   scores: projected-gradient descent of sum_i g_i x_i + (gamma/2)|x|^2
   over {x >= 0, sum x = step}, then largest-remainder rounding. The
   regularizer weight gamma = (g_max - g_min)/step scales the quadratic
   pull to the score spread, so mass concentrates on the best-scoring
   rows without collapsing onto one when several are nearly as good.
   A flat score vector skips the continuous phase: the whole chunk goes
   to the argmin score — exactly the peak guide's move. *)
let allocate scores ~step =
  let n = Array.length scores in
  let argmin () =
    let best = ref 0 in
    Array.iteri (fun i g -> if g < scores.(!best) then best := i) scores;
    let counts = Array.make n 0 in
    counts.(!best) <- step;
    counts
  in
  let g_min = Array.fold_left Float.min infinity scores in
  let g_max = Array.fold_left Float.max neg_infinity scores in
  let gamma = (g_max -. g_min) /. float_of_int step in
  if not (gamma > 0.0) then argmin ()
  else begin
    (* eta = 1/(2 gamma) contracts the fixed-point residual by half per
       step, so [prepass_steps] trades allocation sharpness for work *)
    let eta = 1.0 /. (2.0 *. gamma) in
    let x = ref (Array.make n (float_of_int step /. float_of_int n)) in
    for _ = 1 to prepass_steps do
      let moved =
        Array.mapi (fun i v -> v -. (eta *. (scores.(i) +. (gamma *. v)))) !x
      in
      x := project_simplex moved ~total:(float_of_int step)
    done;
    largest_remainder !x ~total:step
  end

let gradient_rows flow ~rows ~chunk ~stride ~coarse_nx =
  Obs.Trace.with_span "optimizer.gradient_rows" @@ fun () ->
  let base = flow.Flow.base_placement in
  let num_rows = base.Place.Placement.fp.Place.Floorplan.num_rows in
  let candidates =
    let rec collect r acc = if r >= num_rows then List.rev acc
      else collect (r + stride) (r :: acc)
    in
    Array.of_list (collect 0 [])
  in
  let evaluations = ref 0 in
  let adjoint_evaluations = ref 0 in
  let rev_plan = ref [] in
  let remaining = ref rows in
  let cfg = coarse_config flow ~nx:coarse_nx in
  let trial_power = trial_pricer flow ~nx:coarse_nx in
  (* the incumbent's solution is the adjoint's forward input; the last
     confirmation's peak is the committed plan's *)
  let peak0, sol0 = eval_trial flow ~power:(trial_power []) ~nx:coarse_nx in
  incr evaluations;
  let incumbent = ref sol0 in
  let peak = ref peak0 in
  while !remaining > 0 do
    Robust.Cancel.check ();
    let step = min chunk !remaining in
    let inc_power = trial_power !rev_plan in
    let problem = Thermal.Mesh.build cfg ~power:inc_power in
    let adj = Thermal.Adjoint.solve ~forward:!incumbent problem in
    incr adjoint_evaluations;
    let sens = adj.Thermal.Adjoint.sensitivity in
    let trial_of cand =
      List.rev_append (List.init step (fun _ -> cand)) !rev_plan
    in
    (* price every candidate by its trial map only — no solves; the pool
       parallelism is over the maps, order is preserved *)
    let scores =
      Array.of_list
        (Parallel.Pool.map_list (Array.to_list candidates) ~f:(fun cand ->
             sensitivity_score sens (trial_power (trial_of cand))))
    in
    let counts = allocate scores ~step in
    Array.iteri
      (fun i n ->
         if n > 0 then
           rev_plan :=
             List.rev_append (List.init n (fun _ -> candidates.(i))) !rev_plan)
      counts;
    (* confirm the committed chunk with one exact solve *)
    let p, sol =
      eval_trial flow ~power:(trial_power !rev_plan) ~nx:coarse_nx
    in
    incr evaluations;
    incumbent := sol;
    peak := p;
    remaining := !remaining - step
  done;
  let final = Technique.apply_row_insertions base (List.rev !rev_plan) in
  { plan = final; predicted_peak_k = !peak; evaluations = !evaluations;
    blur_evaluations = 0; adjoint_evaluations = !adjoint_evaluations }

let greedy_rows flow ~rows ?(guide = Flow.Guide_peak) ?(chunk = 4)
    ?(stride = 4) ?(coarse_nx = 20) () =
  if rows <= 0 then invalid_arg "Optimizer.greedy_rows: non-positive budget";
  if chunk <= 0 || stride <= 0 || coarse_nx <= 0 then
    invalid_arg "Optimizer.greedy_rows: non-positive parameter";
  let result =
    match guide with
    | Flow.Guide_peak -> peak_rows flow ~rows ~chunk ~stride ~coarse_nx
    | Flow.Guide_gradient -> gradient_rows flow ~rows ~chunk ~stride ~coarse_nx
  in
  Obs.Metrics.count "optimizer.thermal_solves" ~by:result.evaluations;
  if result.blur_evaluations > 0 then
    Obs.Metrics.count "optimizer.blur_evaluations"
      ~by:result.blur_evaluations;
  if result.adjoint_evaluations > 0 then
    Obs.Metrics.count "optimizer.adjoint_solves"
      ~by:result.adjoint_evaluations;
  Obs.Metrics.observe "optimizer.predicted_peak_k" result.predicted_peak_k;
  Obs.Metrics.count "optimizer.rows_inserted" ~by:rows;
  result
