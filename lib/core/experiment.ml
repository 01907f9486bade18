(* The test-set table: name -> (benchmark, workload). *)
let test_sets =
  [ ("scattered",
     fun () ->
       (* mul16a (0), div16 (4), add64 (6) and cmp32 (8) sit in different
          corners/edges of the 3x3 region grid -> four scattered hotspots *)
       ( Netgen.Benchmark.nine_unit (),
         Logicsim.Workload.scattered_hotspots ~hot_units:[ 0; 4; 6; 8 ] ));
    ("concentrated",
     fun () ->
       (* mul20 (tag 2) is the largest unit: one big concentrated hotspot *)
       ( Netgen.Benchmark.nine_unit (),
         Logicsim.Workload.concentrated_hotspot ~hot_unit:2 ));
    ("small",
     fun () ->
       ( Netgen.Benchmark.small (),
         Logicsim.Workload.make ~default:0.05 ~hot:[ (0, 0.5) ] )) ]

let test_set_names = List.map fst test_sets

let prepare_test_set ?seed ?utilization ?sim_cycles name =
  match List.assoc_opt name test_sets with
  | None ->
    invalid_arg (Printf.sprintf "Experiment: unknown test set %S" name)
  | Some make ->
    let bench, workload = make () in
    Flow.prepare ?seed ?utilization ?sim_cycles bench workload

let test_set_1 ?seed ?sim_cycles ?precond:_ ?screen:_ ?guide:_ () =
  prepare_test_set ?seed ?sim_cycles "scattered"

let test_set_2 ?seed ?sim_cycles () =
  prepare_test_set ?seed ?sim_cycles "concentrated"

type point = {
  scheme : string;
  area_overhead_pct : float;
  temp_reduction_pct : float;
  gradient_reduction_pct : float;
  peak_rise_k : float;
  timing_overhead_pct : float;
  hpwl_um : float;
}

let point_of_eval _flow ~base ~scheme (ev : Flow.evaluation) =
  { scheme;
    area_overhead_pct =
      Technique.area_overhead_pct ~base:base.Flow.placement ev.Flow.placement;
    temp_reduction_pct =
      Thermal.Metrics.reduction_pct ~before:base.Flow.metrics
        ~after:ev.Flow.metrics;
    gradient_reduction_pct =
      Thermal.Metrics.gradient_reduction_pct ~before:base.Flow.metrics
        ~after:ev.Flow.metrics;
    peak_rise_k = ev.Flow.metrics.Thermal.Metrics.peak_rise_k;
    timing_overhead_pct =
      Sta.Timing.overhead_pct ~before:base.Flow.timing ~after:ev.Flow.timing;
    hpwl_um = Place.Placement.hpwl ev.Flow.placement }

let point_to_json p =
  Obs.Json.Obj
    [ ("scheme", Obs.Json.String p.scheme);
      ("area_overhead_pct", Obs.Json.Float p.area_overhead_pct);
      ("temp_reduction_pct", Obs.Json.Float p.temp_reduction_pct);
      ("gradient_reduction_pct", Obs.Json.Float p.gradient_reduction_pct);
      ("peak_rise_k", Obs.Json.Float p.peak_rise_k);
      ("timing_overhead_pct", Obs.Json.Float p.timing_overhead_pct);
      ("hpwl_um", Obs.Json.Float p.hpwl_um) ]

let point_of_json j =
  let f k = Option.bind (Obs.Json.member k j) Obs.Json.to_float in
  let s k = Option.bind (Obs.Json.member k j) Obs.Json.to_string_opt in
  match
    ( s "scheme", f "area_overhead_pct", f "temp_reduction_pct",
      f "gradient_reduction_pct", f "peak_rise_k", f "timing_overhead_pct",
      f "hpwl_um" )
  with
  | Some scheme, Some a, Some t, Some g, Some pk, Some ti, Some h ->
    Some
      { scheme; area_overhead_pct = a; temp_reduction_pct = t;
        gradient_reduction_pct = g; peak_rise_k = pk;
        timing_overhead_pct = ti; hpwl_um = h }
  | _ -> None

(* Checkpointed fan-out: indices already present in the checkpoint are
   decoded (against their item) instead of recomputed (bit-identical,
   because [Obs.Json] round-trips every finite float exactly); the rest
   run on the pool, and the full completed set is re-saved atomically
   after each point so an interrupted sweep loses at most in-flight
   work. *)
let map_checkpointed ?checkpoint ~encode ~decode ~f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n None in
  (match checkpoint with
   | None -> ()
   | Some (path, key) ->
     (match Robust.Checkpoint.load ~path ~key with
      | Error e -> Robust.Error.raise_ e
      | Ok entries ->
        let resumed = ref 0 in
        List.iter
          (fun (i, json) ->
             if i < 0 || i >= n then
               Robust.Error.raise_
                 (Robust.Error.Checkpoint_corrupt
                    { path;
                      detail = Printf.sprintf "entry index %d out of range" i })
             else
               match decode items.(i) json with
               | Some v -> results.(i) <- Some v; incr resumed
               | None ->
                 Robust.Error.raise_
                   (Robust.Error.Checkpoint_corrupt
                      { path;
                        detail = Printf.sprintf "entry %d does not decode" i }))
          entries;
        if !resumed > 0 then
          Obs.Metrics.gauge "robust.checkpoint.resumed_entries"
            (float_of_int !resumed)));
  let todo =
    Array.of_list
      (List.filter (fun i -> results.(i) = None) (List.init n Fun.id))
  in
  let save_mutex = Mutex.create () in
  let save () =
    match checkpoint with
    | None -> ()
    | Some (path, key) ->
      let entries = ref [] in
      for i = n - 1 downto 0 do
        match results.(i) with
        | Some v -> entries := (i, encode v) :: !entries
        | None -> ()
      done;
      Robust.Checkpoint.save ~path ~key ~entries:!entries
  in
  Parallel.Pool.parallel_for ~chunks:(Array.length todo) (fun c ->
      let i = todo.(c) in
      results.(i) <- Some (f items.(i));
      if checkpoint <> None then Mutex.protect save_mutex save);
  Array.to_list
    (Array.map (function Some v -> v | None -> assert false) results)

let mesh_fingerprint (cfg : Thermal.Mesh.config) =
  Printf.sprintf "%dx%d/%d" cfg.Thermal.Mesh.nx cfg.Thermal.Mesh.ny
    (Thermal.Stack.num_layers cfg.Thermal.Mesh.stack)

type fig6 = {
  base_eval : Flow.evaluation;
  default_points : point list;
  eri_points : point list;
  hw_points : point list;
}

let default_overheads = [ 0.05; 0.10; 0.15; 0.20; 0.25; 0.30; 0.35; 0.40 ]

let rows_for_overhead = Flow.rows_for_overhead ~nearest:true

(* The key names everything a checkpointed point depends on, including
   the solver (points are equal only to solver tolerance across solvers;
   a key naming a precond other than mg is from an older solver; the
   modal engine that now solves the sweep agrees with the multigrid
   solver that wrote [precond=mg] inside its 1e-10 tolerance, so the key
   stayed) and the job layout (what one entry holds), so a checkpoint
   from another solver or an older layout is refused, not mixed in. *)
let fig6_key flow ~overheads =
  Printf.sprintf
    "fig6 layout=default+hw,eri seed=%d mesh=%s precond=mg util=%h \
     overheads=[%s]"
    flow.Flow.seed
    (mesh_fingerprint flow.Flow.mesh_config)
    flow.Flow.base_utilization
    (String.concat ";" (List.map (Printf.sprintf "%h") overheads))

(* Sweep points are independent given the base evaluation, so the sweep
   fans out as one job list on the pool (chunk indices are fixed, so the
   output is identical to the sequential sweep). HW decorates the Default
   placement of the same overhead, so one job evaluates that placement
   once and yields both points; these two-evaluation jobs come first so
   the pool's in-order claiming hands out the long jobs early. With
   [~checkpoint] the job list is resumable — see
   {!map_checkpointed}; an entry holds one job's points. *)
let run_fig6 ?(overheads = default_overheads) ?checkpoint flow =
  let base = Flow.evaluate flow flow.Flow.base_placement in
  let point scheme ev = point_of_eval flow ~base ~scheme ev in
  let eval_job = function
    | `Default_hw frac ->
      let util = flow.Flow.base_utilization /. (1.0 +. frac) in
      let ev = Flow.evaluate flow (Flow.apply_default flow ~utilization:util) in
      [ point "Default" ev;
        point "HW" (Flow.evaluate flow (Flow.apply_hw flow ~on:ev ())) ]
    | `Eri frac ->
      let r = Flow.apply_eri flow ~base ~rows:(rows_for_overhead flow frac) in
      [ point "ERI" (Flow.evaluate flow r.Technique.eri_placement) ]
  in
  let jobs =
    List.map (fun f -> `Default_hw f) overheads
    @ List.map (fun f -> `Eri f) overheads
  in
  let encode points = Obs.Json.List (List.map point_to_json points) in
  let decode job json =
    let arity = match job with `Default_hw _ -> 2 | `Eri _ -> 1 in
    match json with
    | Obs.Json.List items when List.length items = arity ->
      let points = List.filter_map point_of_json items in
      if List.length points = arity then Some points else None
    | _ -> None
  in
  let checkpoint =
    Option.map (fun path -> (path, fig6_key flow ~overheads)) checkpoint
  in
  let results =
    map_checkpointed ?checkpoint ~encode ~decode ~f:eval_job jobs
  in
  let nk = List.length overheads in
  let default_hw = List.filteri (fun i _ -> i < nk) results in
  let eri = List.filteri (fun i _ -> i >= nk) results in
  { base_eval = base;
    default_points = List.map List.hd default_hw;
    eri_points = List.concat eri;
    hw_points = List.map (fun ps -> List.nth ps 1) default_hw }

type table1_row = {
  t1_scheme : string;
  t1_width_um : float;
  t1_height_um : float;
  t1_rows_inserted : int option;
  t1_overhead_pct : float;
  t1_reduction_pct : float;
}

let run_table1 ?(overheads = [ 0.161; 0.322 ]) flow =
  let base = Flow.evaluate flow flow.Flow.base_placement in
  let row_of ~scheme ~rows ev =
    let core = ev.Flow.placement.Place.Placement.fp.Place.Floorplan.core in
    { t1_scheme = scheme;
      t1_width_um = Geo.Rect.width core;
      t1_height_um = Geo.Rect.height core;
      t1_rows_inserted = rows;
      t1_overhead_pct =
        Technique.area_overhead_pct ~base:base.Flow.placement
          ev.Flow.placement;
      t1_reduction_pct =
        Thermal.Metrics.reduction_pct ~before:base.Flow.metrics
          ~after:ev.Flow.metrics }
  in
  let defaults =
    List.map
      (fun frac ->
         let util = flow.Flow.base_utilization /. (1.0 +. frac) in
         let pl = Flow.apply_default flow ~utilization:util in
         row_of ~scheme:"Default" ~rows:None (Flow.evaluate flow pl))
      overheads
  in
  let eris =
    List.map
      (fun frac ->
         let rows = rows_for_overhead flow frac in
         let r = Flow.apply_eri flow ~base ~rows in
         row_of ~scheme:"ERI" ~rows:(Some rows)
           (Flow.evaluate flow r.Technique.eri_placement))
      overheads
  in
  defaults @ eris

type timing_summary = {
  ts_scheme : string;
  ts_overhead_pct : float;
  ts_critical_ps : float;
  ts_overhead_timing_pct : float;
}

let run_timing flow =
  let base = Flow.evaluate flow flow.Flow.base_placement in
  let summary scheme ev =
    { ts_scheme = scheme;
      ts_overhead_pct =
        Technique.area_overhead_pct ~base:base.Flow.placement
          ev.Flow.placement;
      ts_critical_ps = ev.Flow.timing.Sta.Timing.critical_ps;
      ts_overhead_timing_pct =
        Sta.Timing.overhead_pct ~before:base.Flow.timing
          ~after:ev.Flow.timing }
  in
  let default_pl =
    Flow.apply_default flow
      ~utilization:(flow.Flow.base_utilization /. 1.2)
  in
  let default_ev = Flow.evaluate flow default_pl in
  let eri =
    Flow.apply_eri flow ~base ~rows:(rows_for_overhead flow 0.2)
  in
  let eri_ev = Flow.evaluate flow eri.Technique.eri_placement in
  let hw_pl = Flow.apply_hw flow ~on:default_ev () in
  let hw_ev = Flow.evaluate flow hw_pl in
  [ summary "base" base;
    summary "Default" default_ev;
    summary "ERI" eri_ev;
    summary "HW" hw_ev ]

type congestion_summary = {
  cs_scheme : string;
  cs_max_utilization : float;
  cs_overflow_um : float;
  cs_hotspot_demand_um : float;
}

let run_congestion flow =
  let base = Flow.evaluate flow flow.Flow.base_placement in
  let hot_rect =
    match base.Flow.hotspots with
    | h :: _ -> h.Hotspot.rect
    | [] -> flow.Flow.base_placement.Place.Placement.fp.Place.Floorplan.core
  in
  let summarize scheme pl =
    let r = Route.Congestion.estimate pl () in
    { cs_scheme = scheme;
      cs_max_utilization = r.Route.Congestion.max_utilization;
      cs_overflow_um = r.Route.Congestion.overflow_um;
      cs_hotspot_demand_um = Route.Congestion.hotspot_demand r hot_rect }
  in
  let eri = Flow.apply_eri flow ~base ~rows:(rows_for_overhead flow 0.2) in
  [ summarize "base" flow.Flow.base_placement;
    summarize "ERI" eri.Technique.eri_placement ]

let fig5_maps flow =
  let base = Flow.evaluate flow flow.Flow.base_placement in
  (base.Flow.power_map, base.Flow.thermal_map)

type electrothermal_row = {
  et_scheme : string;
  et_open_loop_peak_k : float;
  et_closed_loop_peak_k : float;
  et_leakage_increase_pct : float;
  et_iterations : int;
}

let run_electrothermal flow =
  let base = Flow.evaluate flow flow.Flow.base_placement in
  let rows = rows_for_overhead flow 0.2 in
  let eri = Flow.apply_eri flow ~base ~rows in
  let row_of scheme pl =
    let r = Electrothermal.evaluate flow pl () in
    { et_scheme = scheme;
      et_open_loop_peak_k = r.Electrothermal.open_loop_peak_k;
      et_closed_loop_peak_k =
        r.Electrothermal.metrics.Thermal.Metrics.peak_rise_k;
      et_leakage_increase_pct =
        100.0
        *. (r.Electrothermal.leakage_w -. r.Electrothermal.nominal_leakage_w)
        /. r.Electrothermal.nominal_leakage_w;
      et_iterations = r.Electrothermal.iterations }
  in
  [ row_of "base" flow.Flow.base_placement;
    row_of "ERI" eri.Technique.eri_placement ]

type package_row = {
  pk_h_top_w_m2k : float;
  pk_peak_k : float;
  pk_gradient_k : float;
  pk_eri_reduction_pct : float;
}

let package_row_to_json r =
  Obs.Json.Obj
    [ ("h_top_w_m2k", Obs.Json.Float r.pk_h_top_w_m2k);
      ("peak_k", Obs.Json.Float r.pk_peak_k);
      ("gradient_k", Obs.Json.Float r.pk_gradient_k);
      ("eri_reduction_pct", Obs.Json.Float r.pk_eri_reduction_pct) ]

let package_row_of_json j =
  let f k = Option.bind (Obs.Json.member k j) Obs.Json.to_float in
  match
    (f "h_top_w_m2k", f "peak_k", f "gradient_k", f "eri_reduction_pct")
  with
  | Some h, Some p, Some g, Some r ->
    Some
      { pk_h_top_w_m2k = h; pk_peak_k = p; pk_gradient_k = g;
        pk_eri_reduction_pct = r }
  | _ -> None

let package_key flow ~sinks =
  Printf.sprintf "package seed=%d mesh=%s sinks=[%s]" flow.Flow.seed
    (mesh_fingerprint flow.Flow.mesh_config)
    (String.concat ";" (List.map (Printf.sprintf "%h") sinks))

let run_package_sweep ?(sinks = [ 2.0e5; 5.0e5; 1.0e6 ]) ?checkpoint flow =
  let checkpoint =
    Option.map (fun path -> (path, package_key flow ~sinks)) checkpoint
  in
  map_checkpointed ?checkpoint ~encode:package_row_to_json
    ~decode:(fun _ -> package_row_of_json) sinks
    ~f:(fun h ->
       let flow =
         { flow with
           Flow.mesh_config =
             { flow.Flow.mesh_config with
               Thermal.Mesh.stack =
                 Thermal.Stack.with_sink
                   flow.Flow.mesh_config.Thermal.Mesh.stack ~h_top_w_m2k:h } }
       in
       let base = Flow.evaluate flow flow.Flow.base_placement in
       let eri =
         Flow.apply_eri flow ~base ~rows:(rows_for_overhead flow 0.2)
       in
       let ev = Flow.evaluate flow eri.Technique.eri_placement in
       { pk_h_top_w_m2k = h;
         pk_peak_k = base.Flow.metrics.Thermal.Metrics.peak_rise_k;
         pk_gradient_k = base.Flow.metrics.Thermal.Metrics.gradient_k;
         pk_eri_reduction_pct =
           Thermal.Metrics.reduction_pct ~before:base.Flow.metrics
             ~after:ev.Flow.metrics })

type baseline_row = {
  bl_scheme : string;
  bl_overhead_pct : float;
  bl_reduction_pct : float;
  bl_timing_pct : float;
}

let run_baselines ?(overhead = 0.2) flow =
  let base = Flow.evaluate flow flow.Flow.base_placement in
  let util = flow.Flow.base_utilization /. (1.0 +. overhead) in
  let row_of scheme ev =
    { bl_scheme = scheme;
      bl_overhead_pct =
        Technique.area_overhead_pct ~base:base.Flow.placement
          ev.Flow.placement;
      bl_reduction_pct =
        Thermal.Metrics.reduction_pct ~before:base.Flow.metrics
          ~after:ev.Flow.metrics;
      bl_timing_pct =
        Sta.Timing.overhead_pct ~before:base.Flow.timing
          ~after:ev.Flow.timing }
  in
  let default_ev =
    Flow.evaluate flow (Flow.apply_default flow ~utilization:util)
  in
  let aware_ev =
    Flow.evaluate flow (Flow.apply_power_aware flow ~utilization:util)
  in
  let eri =
    Flow.apply_eri flow ~base ~rows:(rows_for_overhead flow overhead)
  in
  let eri_ev = Flow.evaluate flow eri.Technique.eri_placement in
  let hw_ev =
    Flow.evaluate flow (Flow.apply_hw flow ~on:default_ev ())
  in
  [ row_of "Default (uniform)" default_ev;
    row_of "power-aware place" aware_ev;
    row_of "ERI (post-place)" eri_ev;
    row_of "HW (post-place)" hw_ev ]

type guide_row = {
  gd_scheme : string;
  gd_peak_rise_k : float;
  gd_reduction_pct : float;
  gd_area_overhead_pct : float;
  gd_exact_solves : int;
  gd_blur_evaluations : int;
  gd_adjoint_solves : int;
}

let run_guide ?(rows = 8) flow =
  let base = Flow.evaluate flow flow.Flow.base_placement in
  let row_of scheme ~exact ~blur ~adjoint (ev : Flow.evaluation) =
    { gd_scheme = scheme;
      gd_peak_rise_k = ev.Flow.metrics.Thermal.Metrics.peak_rise_k;
      gd_reduction_pct =
        Thermal.Metrics.reduction_pct ~before:base.Flow.metrics
          ~after:ev.Flow.metrics;
      gd_area_overhead_pct =
        Technique.area_overhead_pct ~base:base.Flow.placement
          ev.Flow.placement;
      gd_exact_solves = exact;
      gd_blur_evaluations = blur;
      gd_adjoint_solves = adjoint }
  in
  let optimize guide = Optimizer.greedy_rows flow ~rows ~guide () in
  let peak_r = optimize Flow.Guide_peak in
  let grad_r = optimize Flow.Guide_gradient in
  let peak_ev =
    Flow.evaluate flow peak_r.Optimizer.plan.Technique.eri_placement
  in
  let grad_ev =
    Flow.evaluate flow grad_r.Optimizer.plan.Technique.eri_placement
  in
  (* the paper's heuristics as controls at the same row budget *)
  let eri = Flow.apply_eri flow ~base ~rows in
  let eri_ev = Flow.evaluate flow eri.Technique.eri_placement in
  let hw_ev = Flow.evaluate flow (Flow.apply_hw flow ~on:base ()) in
  let optimized scheme (r : Optimizer.result) ev =
    row_of scheme ~exact:r.Optimizer.evaluations
      ~blur:r.Optimizer.blur_evaluations
      ~adjoint:r.Optimizer.adjoint_evaluations ev
  in
  [ optimized "greedy (peak guide)" peak_r peak_ev;
    optimized "gradient guide" grad_r grad_ev;
    row_of "ERI heuristic" ~exact:0 ~blur:0 ~adjoint:0 eri_ev;
    row_of "HW heuristic" ~exact:0 ~blur:0 ~adjoint:0 hw_ev ]

type glitch_row = {
  gl_metric : string;
  gl_zero_delay : float;
  gl_event_driven : float;
}

let run_glitch ?(cycles = 300) flow =
  let nl = flow.Flow.bench.Netgen.Benchmark.netlist in
  let pl = flow.Flow.base_placement in
  let measure_with report =
    let power =
      Power.Model.compute pl
        ~toggle_rate:report.Logicsim.Activity.toggle_rate
    in
    let cfg = flow.Flow.mesh_config in
    let map =
      Power.Map.power_map pl ~per_cell_w:power.Power.Model.per_cell_w
        ~nx:cfg.Thermal.Mesh.nx ~ny:cfg.Thermal.Mesh.ny
    in
    let metrics =
      Thermal.Metrics.of_map
        (Thermal.Mesh.active_layer_grid (Flow.solve_power flow map))
    in
    (Logicsim.Activity.mean_toggle_rate report,
     power.Power.Model.dynamic_w,
     metrics.Thermal.Metrics.peak_rise_k)
  in
  let rng = Geo.Rng.create (flow.Flow.seed + 1001) in
  let zsim = Logicsim.Sim.create nl in
  let z_report =
    Logicsim.Activity.measure zsim flow.Flow.workload (Geo.Rng.copy rng)
      ~warmup:32 ~cycles
  in
  let esim = Logicsim.Event_sim.create nl in
  let e_report =
    Logicsim.Event_sim.measure esim flow.Flow.workload (Geo.Rng.copy rng)
      ~warmup:32 ~cycles
  in
  let z_rate, z_dyn, z_peak = measure_with z_report in
  let e_rate, e_dyn, e_peak = measure_with e_report in
  [ { gl_metric = "mean toggle rate [1/cycle]"; gl_zero_delay = z_rate;
      gl_event_driven = e_rate };
    { gl_metric = "dynamic power [mW]"; gl_zero_delay = z_dyn *. 1e3;
      gl_event_driven = e_dyn *. 1e3 };
    { gl_metric = "peak rise [K]"; gl_zero_delay = z_peak;
      gl_event_driven = e_peak } ]

type ablation_row = {
  ab_variant : string;
  ab_overhead_pct : float;
  ab_reduction_pct : float;
}

let run_ablation ?(overhead = 0.2) flow =
  let base = Flow.evaluate flow flow.Flow.base_placement in
  let rows = rows_for_overhead flow overhead in
  let row_of name r =
    let ev = Flow.evaluate flow r.Technique.eri_placement in
    { ab_variant = name;
      ab_overhead_pct =
        Technique.area_overhead_pct ~base:base.Flow.placement
          ev.Flow.placement;
      ab_reduction_pct =
        Thermal.Metrics.reduction_pct ~before:base.Flow.metrics
          ~after:ev.Flow.metrics }
  in
  let interleaved =
    Technique.empty_row_insertion ~style:`Interleaved base.Flow.placement
      ~hotspots:base.Flow.hotspots ~rows
  in
  let clustered =
    Technique.empty_row_insertion ~style:`Clustered base.Flow.placement
      ~hotspots:base.Flow.hotspots ~rows
  in
  let optimized = Optimizer.greedy_rows flow ~rows () in
  [ row_of "ERI interleaved" interleaved;
    row_of "ERI clustered" clustered;
    row_of "greedy optimizer" optimized.Optimizer.plan ]
