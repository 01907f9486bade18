(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (plus the in-text claims and our ablations), and runs
   bechamel micro-benchmarks of the core kernels.

   Each suite returns only its JSON summary. The harness prints the
   suite's header, renders the summary as text (a list of flat objects as
   one aligned table, every other leaf as a "path: value" line, null as
   "-") and writes it to BENCH_<name>.json in the current directory.

   Usage:
     dune exec bench/main.exe           -- every paper experiment ("all")
     dune exec bench/main.exe -- NAME   -- one suite of the table at the
                                           end of this file: a paper
                                           experiment (fig5, fig6, table1,
                                           ...) or a kernel suite (perf,
                                           cg, mg, fft, adjoint, serve)

   `--jobs N` anywhere on the line sizes the domain pool. `--trials N`
   runs each selected suite N times and replaces every wall-clock
   ("_ms") leaf of the summary with {median, min, max, iqr, trials}
   statistics, so bench_diff can gate medians inside a noise-aware band
   instead of a single sample; boolean invariants are ANDed across
   trials. Every suite also appends one record to the run ledger
   (THERMOPLACE_LEDGER; "none" disables). *)

let sim_cycles = 1000

let flow1 = lazy (Postplace.Experiment.test_set_1 ~sim_cycles ())
let flow2 = lazy (Postplace.Experiment.test_set_2 ~sim_cycles ())

let j_obj fields = Obs.Json.Obj fields
let j_list items = Obs.Json.List items
let j_f v = Obs.Json.Float v
let j_i v = Obs.Json.Int v
let j_s v = Obs.Json.String v
let j_b v = Obs.Json.Bool v

(* The "rows" table of a summary: one flat object per row. *)
let rows_field f rows = ("rows", j_list (List.map (fun r -> j_obj (f r)) rows))

(* A suite whose summary is that table alone, over the rows [experiment]
   returns on [flow]. *)
let rows_suite flow experiment f () =
  j_obj [ rows_field f (experiment (Lazy.force flow)) ]

(* [fl]'s stack on an nx x nx grid, placement [pl]'s power binned on it,
   and the resulting mesh problem. *)
let grid fl nx = { fl.Postplace.Flow.mesh_config with Thermal.Mesh.nx; ny = nx }

let power_at fl ~nx pl =
  Power.Map.power_map pl ~per_cell_w:fl.Postplace.Flow.per_cell_w ~nx ~ny:nx

let problem_at fl ~nx pl =
  Thermal.Mesh.build (grid fl nx) ~power:(power_at fl ~nx pl)

(* --- FIG 5 ------------------------------------------------------------- *)

let run_fig5 () =
  let fl = Lazy.force flow1 in
  let power, thermal = Postplace.Experiment.fig5_maps fl in
  Printf.printf "power map [W per tile], 40x40, top row first:\n";
  Format.printf "%a@." Geo.Grid.pp_rows power;
  Printf.printf "thermal map [K rise over ambient], 40x40, top row first:\n";
  Format.printf "%a@." Geo.Grid.pp_rows thermal;
  let m = Thermal.Metrics.of_map thermal in
  let px, py = Geo.Grid.argmax power in
  let tx, ty = Geo.Grid.argmax thermal in
  j_obj
    [ ("thermal", Thermal.Metrics.to_json m);
      ("peak_power_tile", j_list [ j_i px; j_i py ]);
      ("peak_thermal_tile", j_list [ j_i tx; j_i ty ]) ]

(* --- FIG 6 ------------------------------------------------------------- *)

let run_fig6 () =
  let fl = Lazy.force flow1 in
  let fig6 = Postplace.Experiment.run_fig6 fl in
  let base = fig6.Postplace.Experiment.base_eval in
  let pl = base.Postplace.Flow.placement in
  let fp = pl.Place.Placement.fp in
  let points =
    fig6.Postplace.Experiment.default_points
    @ fig6.Postplace.Experiment.eri_points
    @ fig6.Postplace.Experiment.hw_points
  in
  (* the paper's qualitative checks, verified on the spot *)
  let reductions pts =
    List.map (fun (p : Postplace.Experiment.point) -> p.temp_reduction_pct)
      pts
  in
  let d = reductions fig6.Postplace.Experiment.default_points in
  let e = reductions fig6.Postplace.Experiment.eri_points in
  let h = reductions fig6.Postplace.Experiment.hw_points in
  let all_above a b = List.for_all2 (fun x y -> x > y) a b in
  let monotone =
    List.for_all (fun xs -> xs = List.sort compare xs) [ d; e ]
  in
  j_obj
    [ ("base_placement",
       j_obj
         [ ("core_width_um", j_f (Geo.Rect.width fp.Place.Floorplan.core));
           ("core_height_um", j_f (Geo.Rect.height fp.Place.Floorplan.core));
           ("rows", j_i fp.Place.Floorplan.num_rows);
           ("sites_per_row", j_i fp.Place.Floorplan.sites_per_row);
           ("cells", j_i (Netlist.Types.num_cells pl.Place.Placement.nl));
           ("utilization", j_f (Place.Placement.utilization pl));
           ("hpwl_um", j_f (Place.Placement.hpwl pl)) ]);
      ("base_thermal", Thermal.Metrics.to_json base.Postplace.Flow.metrics);
      ("hotspots", j_i (List.length base.Postplace.Flow.hotspots));
      ("points", j_list (List.map Postplace.Experiment.point_to_json points));
      ("checks",
       j_obj
         [ ("eri_above_default", j_b (all_above e d));
           ("hw_above_default", j_b (all_above h d));
           ("monotone_in_overhead", j_b monotone) ]) ]

(* --- TABLE I ------------------------------------------------------------ *)

let run_table1 =
  rows_suite flow2 Postplace.Experiment.run_table1
    (fun (r : Postplace.Experiment.table1_row) ->
       [ ("scheme", j_s r.Postplace.Experiment.t1_scheme);
         ("width_um", j_f r.t1_width_um);
         ("height_um", j_f r.t1_height_um);
         ("rows_inserted",
          (match r.t1_rows_inserted with
           | None -> Obs.Json.Null
           | Some k -> j_i k));
         ("overhead_pct", j_f r.t1_overhead_pct);
         ("reduction_pct", j_f r.t1_reduction_pct) ])

(* --- TIMING -------------------------------------------------------------- *)

let run_timing () =
  let fl = Lazy.force flow1 in
  let rows = Postplace.Experiment.run_timing fl in
  (* the paper's claim concerns the *techniques*, so HW is measured against
     the Default placement it starts from *)
  let marginal =
    match rows with
    | [ _; default_row; _; hw_row ] ->
      j_f
        (100.0
         *. (hw_row.Postplace.Experiment.ts_critical_ps
             -. default_row.Postplace.Experiment.ts_critical_ps)
         /. default_row.Postplace.Experiment.ts_critical_ps)
    | _ -> Obs.Json.Null
  in
  j_obj
    [ rows_field
        (fun (r : Postplace.Experiment.timing_summary) ->
           [ ("scheme", j_s r.Postplace.Experiment.ts_scheme);
             ("overhead_pct", j_f r.ts_overhead_pct);
             ("critical_ps", j_f r.ts_critical_ps);
             ("timing_vs_base_pct", j_f r.ts_overhead_timing_pct) ])
        rows;
      ("hw_marginal_vs_default_pct", marginal) ]

(* --- CONGESTION ------------------------------------------------------------ *)

let run_congestion =
  rows_suite flow1 Postplace.Experiment.run_congestion
    (fun (r : Postplace.Experiment.congestion_summary) ->
       [ ("scheme", j_s r.Postplace.Experiment.cs_scheme);
         ("max_utilization", j_f r.cs_max_utilization);
         ("overflow_um", j_f r.cs_overflow_um);
         ("hotspot_demand_um", j_f r.cs_hotspot_demand_um) ])

(* --- ABLATION ----------------------------------------------------------------- *)

let run_ablation =
  rows_suite flow2 Postplace.Experiment.run_ablation
    (fun (r : Postplace.Experiment.ablation_row) ->
       [ ("variant", j_s r.Postplace.Experiment.ab_variant);
         ("overhead_pct", j_f r.ab_overhead_pct);
         ("reduction_pct", j_f r.ab_reduction_pct) ])

(* --- OPTIMIZER ------------------------------------------------------------------ *)

let run_optimizer () =
  let fl = Lazy.force flow2 in
  let base = Postplace.Flow.evaluate fl fl.Postplace.Flow.base_placement in
  let budgets =
    List.map
      (fun rows ->
         let heuristic = Postplace.Flow.apply_eri fl ~base ~rows in
         let he =
           Postplace.Flow.evaluate fl
             heuristic.Postplace.Technique.eri_placement
         in
         let optimized = Postplace.Optimizer.greedy_rows fl ~rows () in
         let oe =
           Postplace.Flow.evaluate fl
             optimized.Postplace.Optimizer.plan.Postplace.Technique
               .eri_placement
         in
         let red ev =
           Thermal.Metrics.reduction_pct
             ~before:base.Postplace.Flow.metrics
             ~after:ev.Postplace.Flow.metrics
         in
         j_obj
           [ ("budget_rows", j_i rows);
             ("heuristic_reduction_pct", j_f (red he));
             ("greedy_reduction_pct", j_f (red oe));
             ("coarse_solves", j_i optimized.Postplace.Optimizer.evaluations);
             ("blur_evaluations",
              j_i optimized.Postplace.Optimizer.blur_evaluations) ])
      [ 8; 16; 24 ]
  in
  j_obj [ ("budgets", j_list budgets) ]

(* --- ELECTROTHERMAL ------------------------------------------------------------ *)

let run_electrothermal =
  rows_suite flow2 Postplace.Experiment.run_electrothermal
    (fun (r : Postplace.Experiment.electrothermal_row) ->
       [ ("scheme", j_s r.Postplace.Experiment.et_scheme);
         ("open_loop_peak_k", j_f r.et_open_loop_peak_k);
         ("closed_loop_peak_k", j_f r.et_closed_loop_peak_k);
         ("leakage_increase_pct", j_f r.et_leakage_increase_pct);
         ("iterations", j_i r.et_iterations) ])

(* --- PACKAGE SWEEP --------------------------------------------------------------- *)

let run_package =
  rows_suite flow1 Postplace.Experiment.run_package_sweep
    (fun (r : Postplace.Experiment.package_row) ->
       [ ("h_top_w_m2k", j_f r.Postplace.Experiment.pk_h_top_w_m2k);
         ("peak_k", j_f r.pk_peak_k);
         ("gradient_k", j_f r.pk_gradient_k);
         ("eri_reduction_pct", j_f r.pk_eri_reduction_pct) ])

(* --- BASELINES ----------------------------------------------------------------------- *)

let run_baselines =
  rows_suite flow1 Postplace.Experiment.run_baselines
    (fun (r : Postplace.Experiment.baseline_row) ->
       [ ("scheme", j_s r.Postplace.Experiment.bl_scheme);
         ("overhead_pct", j_f r.bl_overhead_pct);
         ("reduction_pct", j_f r.bl_reduction_pct);
         ("timing_pct", j_f r.bl_timing_pct) ])

(* --- GLITCH ------------------------------------------------------------------------ *)

let run_glitch =
  rows_suite flow1 Postplace.Experiment.run_glitch
    (fun (r : Postplace.Experiment.glitch_row) ->
       [ ("metric", j_s r.Postplace.Experiment.gl_metric);
         ("zero_delay", j_f r.gl_zero_delay);
         ("event_driven", j_f r.gl_event_driven) ])

(* --- GUIDE (gradient vs peak head-to-head) ----------------------------------------- *)

let run_guide =
  rows_suite flow1 Postplace.Experiment.run_guide
    (fun (r : Postplace.Experiment.guide_row) ->
       [ ("scheme", j_s r.Postplace.Experiment.gd_scheme);
         ("peak_rise_k", j_f r.gd_peak_rise_k);
         ("reduction_pct", j_f r.gd_reduction_pct);
         ("area_overhead_pct", j_f r.gd_area_overhead_pct);
         ("exact_solves", j_i r.gd_exact_solves);
         ("adjoint_solves", j_i r.gd_adjoint_solves) ])

(* --- TRANSIENT (model validation) ------------------------------------------------- *)

let run_transient () =
  let fl = Lazy.force flow1 in
  let base = Postplace.Flow.evaluate fl fl.Postplace.Flow.base_placement in
  (* re-bin the power map at the coarse transient resolution *)
  let power = power_at fl ~nx:16 base.Postplace.Flow.placement in
  let r =
    Thermal.Transient.step_response (grid fl 16) ~power ~dt_s:2e-5 ~steps:60
      ()
  in
  (* every 12th instant of the trajectory *)
  let samples =
    List.filter (fun k -> k mod 12 = 0)
      (List.init (Array.length r.Thermal.Transient.times_s) Fun.id)
  in
  j_obj
    [ ("steady_peak_k", j_f r.Thermal.Transient.steady_peak_k);
      ("tau_63_s", j_f r.Thermal.Transient.tau_63_s);
      ("trajectory",
       j_list
         (List.map
            (fun k ->
               j_obj
                 [ ("t_us", j_f (r.Thermal.Transient.times_s.(k) *. 1e6));
                   ("peak_rise_k", j_f r.Thermal.Transient.peak_rise_k.(k)) ])
            samples));
      ("steady_state_justified", j_b (r.Thermal.Transient.tau_63_s > 1e-6)) ]

(* --- PERF (bechamel) -------------------------------------------------------------- *)

let run_perf () =
  let fl = Lazy.force flow1 in
  let base = fl.Postplace.Flow.base_placement in
  let nl = fl.Postplace.Flow.bench.Netgen.Benchmark.netlist in
  let power_map = power_at fl ~nx:40 base in
  let problem = Thermal.Mesh.build fl.Postplace.Flow.mesh_config ~power:power_map in
  let base_ev = lazy (Postplace.Flow.evaluate fl base) in
  let sim = Logicsim.Sim.create nl in
  let workload = fl.Postplace.Flow.workload in
  let rng = Geo.Rng.create 99 in
  let open Bechamel in
  let open Bechamel.Toolkit in
  let tests =
    Test.make_grouped ~name:"kernels"
      [ Test.make ~name:"thermal:cg-solve-40x40x9"
          (Staged.stage (fun () -> ignore (Thermal.Mesh.solve problem)));
        Test.make ~name:"thermal:mesh-build"
          (Staged.stage (fun () ->
               ignore
                 (Thermal.Mesh.build fl.Postplace.Flow.mesh_config
                    ~power:power_map)));
        Test.make ~name:"power:map-binning-12k"
          (Staged.stage (fun () -> ignore (power_at fl ~nx:40 base)));
        Test.make ~name:"sim:32-cycles-12k-cells"
          (Staged.stage (fun () ->
               Logicsim.Workload.run workload sim rng ~cycles:32));
        Test.make ~name:"sta:full-timing-12k"
          (Staged.stage (fun () ->
               ignore (Sta.Timing.analyze base ())));
        Test.make ~name:"eri:transform"
          (Staged.stage (fun () ->
               let ev = Lazy.force base_ev in
               ignore
                 (Postplace.Technique.empty_row_insertion base
                    ~hotspots:ev.Postplace.Flow.hotspots ~rows:16)));
        Test.make ~name:"place:hpwl-12k"
          (Staged.stage (fun () -> ignore (Place.Placement.hpwl base))) ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter (fun name v -> rows := (name, v) :: !rows) results;
  let kernels =
    List.filter_map
      (fun (name, v) ->
         match Analyze.OLS.estimates v with
         | Some [ ns ] -> Some (name, j_f ns)
         | _ -> None)
      (List.sort compare !rows)
  in
  j_obj [ ("ns_per_run", j_obj kernels) ]

(* --- kernel-suite fixtures ------------------------------------------------------ *)

let time f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.now () -. t0)

let ms t = j_f (t *. 1e3)

(* The cg, mg, fft and adjoint suites run on a fresh metrics registry and
   a 1-domain pool, restored to the caller's size however the suite
   exits. They benchmark the *exact* candidate-evaluation path (their
   baselines predate fft screening), so test set 1 comes pinned to the
   exact screening tier; the fft suite switches tiers itself. *)
let kernel_suite run () =
  let saved_jobs = Parallel.Pool.jobs () in
  Obs.Metrics.reset ();
  Parallel.Pool.set_jobs 1;
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.set_jobs saved_jobs)
    (fun () ->
       run
         { (Lazy.force flow1) with
           Postplace.Flow.screen = Postplace.Flow.Screen_exact })

let plan_of (r : Postplace.Optimizer.result) =
  r.Postplace.Optimizer.plan.Postplace.Technique.inserted_after

(* Typed registry reads for the telemetry sections: a counter that was
   never bumped reads 0, a histogram as its percentiles or its sum. The
   reservoir keeps an unbiased sample of the whole stream, so p50/p90/p99
   describe the full run, not its first 4096 observations. *)
let counter name =
  j_i (Option.value ~default:0 (Obs.Metrics.counter_value name))

let hist_percentiles name =
  match Obs.Metrics.histogram name with
  | None -> Obs.Json.Null
  | Some h ->
    j_obj
      [ ("count", j_i h.Obs.Metrics.count);
        ("p50", j_f (Obs.Metrics.percentile h 0.50));
        ("p90", j_f (Obs.Metrics.percentile h 0.90));
        ("p99", j_f (Obs.Metrics.percentile h 0.99)) ]

let hist_sum name =
  match Obs.Metrics.histogram name with
  | None -> j_i 0
  | Some h -> j_i (int_of_float h.Obs.Metrics.sum)

(* The fft and adjoint suites' head-to-head at the production grid:
   greedy_rows (8 rows in chunks of 4, about 20 candidate rows, 160x160)
   once under flow [fl_a] and once under [fl_b]. No operator, hierarchy or
   blur transfer outlives its problem, so each run starts cold (the keys
   keep their "_cold" names). Returns both sides' results and the summary
   fields they share, the times keyed by the side names [a] and [b]. *)
let head_to_head (a, fl_a) (b, fl_b) =
  let num_rows =
    fl_a.Postplace.Flow.base_placement.Place.Placement.fp
      .Place.Floorplan.num_rows
  in
  let rows = 8 and chunk = 4 in
  let stride = max 1 (num_rows / 20) in
  let coarse_nx = 160 in
  let run f =
    time (fun () ->
        Postplace.Optimizer.greedy_rows f ~rows ~chunk ~stride ~coarse_nx ())
  in
  let ra, ta = run fl_a in
  let rb, tb = run fl_b in
  ( ra,
    rb,
    [ ("rows", j_i rows);
      ("stride", j_i stride);
      ("coarse_nx", j_i coarse_nx);
      (a ^ "_cold_ms", ms ta);
      (b ^ "_cold_ms", ms tb);
      ("speedup_cold", j_f (ta /. tb)) ] )

(* --- CG ENGINE -------------------------------------------------------------------- *)

(* Wall-clock comparison of the incremental/parallel solve engine against
   the seed behaviour (fresh assembly + cold Jacobi solve everywhere,
   quadratic plan append, sequential candidates). *)

(* The seed's greedy_rows, reproduced verbatim as a baseline: quadratic
   [plan @ ...] growth, a mesh build per trial, cold solves, one extra final
   scoring solve. *)
let seed_greedy fl ~rows ~chunk ~stride ~coarse_nx =
  let peak_of pl =
    let cfg =
      { fl.Postplace.Flow.mesh_config with Thermal.Mesh.nx = coarse_nx;
        ny = coarse_nx }
    in
    let power =
      Power.Map.power_map pl ~per_cell_w:fl.Postplace.Flow.per_cell_w
        ~nx:coarse_nx ~ny:coarse_nx
    in
    let solution =
      Thermal.Mesh.solve (Thermal.Mesh.build cfg ~power)
    in
    (Thermal.Metrics.of_map (Thermal.Mesh.active_layer_grid solution))
      .Thermal.Metrics.peak_rise_k
  in
  let evaluate after =
    let r =
      Postplace.Technique.apply_row_insertions
        fl.Postplace.Flow.base_placement after
    in
    peak_of r.Postplace.Technique.eri_placement
  in
  let base = fl.Postplace.Flow.base_placement in
  let num_rows = base.Place.Placement.fp.Place.Floorplan.num_rows in
  let candidates =
    let rec collect r acc = if r >= num_rows then List.rev acc
      else collect (r + stride) (r :: acc)
    in
    collect 0 []
  in
  let plan = ref [] in
  let remaining = ref rows in
  while !remaining > 0 do
    let step = min chunk !remaining in
    let best = ref None in
    List.iter
      (fun cand ->
         let trial = !plan @ List.init step (fun _ -> cand) in
         let peak = evaluate trial in
         match !best with
         | Some (_, best_peak) when best_peak <= peak -> ()
         | _ -> best := Some (cand, peak))
      candidates;
    (match !best with
     | Some (cand, _) -> plan := !plan @ List.init step (fun _ -> cand)
     | None -> assert false);
    remaining := !remaining - step
  done;
  let final =
    Postplace.Technique.apply_row_insertions base !plan
  in
  (final.Postplace.Technique.inserted_after,
   peak_of final.Postplace.Technique.eri_placement)

let run_cg fl =
  let cfg = fl.Postplace.Flow.mesh_config in
  let power = power_at fl ~nx:40 fl.Postplace.Flow.base_placement in
  (* kernel timings: one mesh build *)
  let problem, t_asm_cold = time (fun () -> Thermal.Mesh.build cfg ~power) in
  (* solver variants on the 40x40x9 system *)
  let cold, t_cold = time (fun () -> Thermal.Mesh.solve problem) in
  let ssor, t_ssor =
    time (fun () -> Thermal.Mesh.solve ~precond:(Thermal.Cg.Ssor 1.2) problem)
  in
  let warm, t_warm =
    time (fun () -> Thermal.Mesh.solve ~x0:cold.Thermal.Mesh.temp problem)
  in
  (* optimizer scenario: seed behaviour vs the engine, sequential and
     parallel *)
  let rows = 8 and coarse_nx = 40 in
  let (seed_plan, seed_peak), t_seed =
    time (fun () -> seed_greedy fl ~rows ~chunk:4 ~stride:4 ~coarse_nx)
  in
  let engine jobs =
    Parallel.Pool.set_jobs jobs;
    time (fun () -> Postplace.Optimizer.greedy_rows fl ~rows ~coarse_nx ())
  in
  let r1, t_eng1 = engine 1 in
  let r4, t_eng4 = engine 4 in
  let parallel_identical =
    plan_of r1 = plan_of r4
    && r1.Postplace.Optimizer.predicted_peak_k
       = r4.Postplace.Optimizer.predicted_peak_k
  in
  j_obj
    [ ("kernel",
       j_obj
         [ ("assembly_cold_ms", ms t_asm_cold);
           ("cold_jacobi_ms", ms t_cold);
           ("cold_jacobi_iters", j_i cold.Thermal.Mesh.cg_iterations);
           ("cold_ssor_ms", ms t_ssor);
           ("cold_ssor_iters", j_i ssor.Thermal.Mesh.cg_iterations);
           ("warm_jacobi_ms", ms t_warm);
           ("warm_jacobi_iters", j_i warm.Thermal.Mesh.cg_iterations) ]);
      ("optimizer",
       j_obj
         [ ("rows", j_i rows);
           ("coarse_nx", j_i coarse_nx);
           ("seed_ms", ms t_seed);
           ("engine_ms", ms t_eng1);
           ("engine_4domains_ms", ms t_eng4);
           ("speedup", j_f (t_seed /. t_eng1));
           ("speedup_4domains", j_f (t_seed /. t_eng4));
           ("seed_peak_k", j_f seed_peak);
           ("engine_peak_k", j_f r1.Postplace.Optimizer.predicted_peak_k);
           ("plans_agree", j_b (plan_of r1 = seed_plan));
           ("parallel_bit_identical", j_b parallel_identical) ]);
      ("telemetry",
       j_obj
         [ ("cold_iterations",
            hist_percentiles "thermal.cg.cold.iterations");
           ("warm_iterations",
            hist_percentiles "thermal.cg.warm.iterations") ]) ]

(* --- MG ENGINE --------------------------------------------------------------------- *)

(* Geometric-multigrid V-cycle preconditioner vs Jacobi / SSOR CG across
   mesh sizes, with the iteration ceiling z-line smoothing earns (at most
   10 MG-CG iterations at every size), plus the two invariants the
   optimizer relies on when running under [Pc_mg]: greedy plans unchanged
   and bit-identical parallel runs. *)

let run_mg fl =
  let base = fl.Postplace.Flow.base_placement in
  let speedup_160 = ref 0.0 in
  let max_mg_iters = ref 0 in
  let size_rows =
    List.map
      (fun nx ->
         let problem = problem_at fl ~nx base in
         let jac, t_jac = time (fun () -> Thermal.Mesh.solve problem) in
         let ssor, t_ssor =
           time (fun () ->
               Thermal.Mesh.solve ~precond:(Thermal.Cg.Ssor 1.2) problem)
         in
         let hier, t_build =
           time (fun () -> Thermal.Mesh.multigrid problem)
         in
         let mg, t_mg =
           time (fun () ->
               Thermal.Mesh.solve ~precond:(Thermal.Cg.Multigrid hier)
                 problem)
         in
         (* agreement with the SSOR solve, relative to the peak rise *)
         let scale =
           Array.fold_left
             (fun a v -> Float.max a (Float.abs v))
             0.0 ssor.Thermal.Mesh.temp
         in
         let max_rel = ref 0.0 in
         Array.iteri
           (fun i v ->
              max_rel :=
                Float.max !max_rel
                  (Float.abs (v -. mg.Thermal.Mesh.temp.(i)) /. scale))
           ssor.Thermal.Mesh.temp;
         let speedup = t_ssor /. t_mg in
         if nx = 160 then speedup_160 := speedup;
         max_mg_iters := max !max_mg_iters mg.Thermal.Mesh.cg_iterations;
         j_obj
           [ ("nx", j_i nx);
             ("jacobi_ms", ms t_jac);
             ("jacobi_iters", j_i jac.Thermal.Mesh.cg_iterations);
             ("ssor_ms", ms t_ssor);
             ("ssor_iters", j_i ssor.Thermal.Mesh.cg_iterations);
             ("mg_build_ms", ms t_build);
             ("mg_solve_ms", ms t_mg);
             ("mg_iters", j_i mg.Thermal.Mesh.cg_iterations);
             ("mg_levels", j_i (Thermal.Multigrid.num_levels hier));
             ("speedup_vs_ssor", j_f speedup);
             ("max_rel_diff_vs_ssor", j_f !max_rel) ])
      [ 40; 80; 160 ]
  in
  (* parallel determinism of the MG-preconditioned solve itself *)
  let p80 = problem_at fl ~nx:80 base in
  let h80 = Thermal.Mesh.multigrid p80 in
  let solve_mg80 () =
    Thermal.Mesh.solve ~precond:(Thermal.Cg.Multigrid h80) p80
  in
  let mg1 = solve_mg80 () in
  Parallel.Pool.set_jobs 4;
  let mg4 = solve_mg80 () in
  let solve_identical = mg1.Thermal.Mesh.temp = mg4.Thermal.Mesh.temp in
  (* optimizer invariants: the greedy plan under the Pc_mg default matches
     the one under SSOR(1.6), the retired ranking default, and Pc_mg runs
     are bit-identical across pool sizes *)
  let greedy jobs f =
    Parallel.Pool.set_jobs jobs;
    Postplace.Optimizer.greedy_rows f ~rows:8 ()
  in
  let r_ssor =
    greedy 1
      { fl with Postplace.Flow.mesh_precond = Thermal.Mesh.Pc_ssor 1.6 }
  in
  let r_mg1 = greedy 1 fl in
  let r_mg4 = greedy 4 fl in
  let parallel_identical =
    solve_identical
    && plan_of r_mg1 = plan_of r_mg4
    && r_mg1.Postplace.Optimizer.predicted_peak_k
       = r_mg4.Postplace.Optimizer.predicted_peak_k
  in
  j_obj
    [ ("sizes", j_list size_rows);
      ("speedup_vs_ssor_160", j_f !speedup_160);
      ("iterations_within_10", j_b (!max_mg_iters <= 10));
      ("plans_agree", j_b (plan_of r_ssor = plan_of r_mg1));
      ("parallel_bit_identical", j_b parallel_identical);
      ("telemetry",
       j_obj
         [ ("cold_iterations",
            hist_percentiles "thermal.cg.cold.iterations");
           ("vcycle_count", counter "thermal.mg.cycles");
           ("vcycles_per_solve",
            hist_percentiles "thermal.mg.solve.cycles") ]) ]

(* --- FFT SCREENING ----------------------------------------------------------------- *)

(* Green's-function power blurring (Kemper et al.), made exact, as the
   optimizer's pricing tier: FFT parity against a naive DFT, kernel
   characterization cost, per-candidate blur vs warm MG-CG cost at
   160x160, rank agreement with rank-tolerance solves at the optimizer's
   grid, and end-to-end greedy_rows under Screen_auto (labelled "fft")
   vs Screen_exact. *)

let run_fft fl =
  let base = fl.Postplace.Flow.base_placement in
  let num_rows = base.Place.Placement.fp.Place.Floorplan.num_rows in
  (* FFT parity vs a naive O(n^2) DFT at power-of-two (8), mixed-radix
     (40) and Bluestein (60, 127) lengths *)
  let parity_err n =
    let st = Random.State.make [| 1997; n |] in
    let re = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
    let im = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
    let fr = Array.copy re and fi = Array.copy im in
    Thermal.Fft.fft ~re:fr ~im:fi;
    let scale = ref 0.0 and err = ref 0.0 in
    for k = 0 to n - 1 do
      let sr = ref 0.0 and si = ref 0.0 in
      for t = 0 to n - 1 do
        let ang =
          -2.0 *. Float.pi *. float_of_int (k * t) /. float_of_int n
        in
        sr := !sr +. (re.(t) *. cos ang) -. (im.(t) *. sin ang);
        si := !si +. (re.(t) *. sin ang) +. (im.(t) *. cos ang)
      done;
      scale := Float.max !scale (Float.hypot !sr !si);
      err := Float.max !err (Float.hypot (fr.(k) -. !sr) (fi.(k) -. !si))
    done;
    !err /. !scale
  in
  let parity = List.map (fun n -> (n, parity_err n)) [ 8; 40; 60; 127 ] in
  let parity_max =
    List.fold_left (fun a (_, e) -> Float.max a e) 0.0 parity
  in
  (* One greedy round's candidate pricing on an nx x nx grid, as the
     optimizer runs it: hierarchy and blur kernel built on the trial
     extent, every trial solved at rank tolerance warm from the base
     incumbent, and blurred. Returns the hierarchy build and kernel
     characterization times and, per candidate, (exact peak, blurred
     peak, solve time, blur time). *)
  let rank_tol = 1e-6 in
  let power_of ~nx after =
    let r = Postplace.Technique.apply_row_insertions base after in
    power_at fl ~nx r.Postplace.Technique.eri_placement
  in
  let chunk_plan cand = List.init 4 (fun _ -> cand) in
  let price ~nx cands =
    let cfg = grid fl nx in
    let p_base = Thermal.Mesh.build cfg ~power:(power_of ~nx []) in
    let h_base = Thermal.Mesh.multigrid p_base in
    let inc =
      Thermal.Mesh.solve ~tol:rank_tol ~precond:(Thermal.Cg.Multigrid h_base)
        p_base
    in
    let p_first =
      Thermal.Mesh.build cfg ~power:(power_of ~nx (chunk_plan (List.hd cands)))
    in
    let hier, t_mg_build = time (fun () -> Thermal.Mesh.multigrid p_first) in
    let kernel, t_char = time (fun () -> Thermal.Mesh.blur p_first) in
    let scored =
      List.map
        (fun cand ->
           let power = power_of ~nx (chunk_plan cand) in
           let problem = Thermal.Mesh.build cfg ~power in
           let sol, t_ex =
             time (fun () ->
                 Thermal.Mesh.solve ~tol:rank_tol
                   ~precond:(Thermal.Cg.Multigrid hier)
                   ~x0:inc.Thermal.Mesh.temp problem)
           in
           let bl, t_bl = time (fun () -> Thermal.Blur.peak kernel ~power) in
           let ex =
             (Thermal.Metrics.of_map (Thermal.Mesh.active_layer_grid sol))
               .Thermal.Metrics.peak_rise_k
           in
           (ex, bl, t_ex, t_bl))
        cands
    in
    (t_mg_build, t_char, scored)
  in
  let max_rel_err scored =
    List.fold_left
      (fun a (ex, bl, _, _) -> Float.max a (Float.abs (bl -. ex) /. ex))
      0.0 scored
  in
  (* per-candidate cost at 160x160: one blurred peak vs one warm
     rank-tolerance MG-CG solve -- the two things the optimizer can spend
     on a candidate *)
  let nx = 160 in
  let cands8 = List.init 8 (fun i -> i * max 1 (num_rows / 8)) in
  let bluestein () =
    Option.value ~default:0 (Obs.Metrics.counter_value "thermal.fft.bluestein")
  in
  let bluestein0 = bluestein () in
  let t_mg_build, t_char, scored160 = price ~nx cands8 in
  let mean_ms f =
    List.fold_left (fun a c -> a +. f c) 0.0 scored160
    /. float_of_int (List.length cands8) *. 1e3
  in
  let exact_eval_ms = mean_ms (fun (_, _, t, _) -> t) in
  let blur_eval_ms = mean_ms (fun (_, _, _, t) -> t) in
  (* rank fidelity: does the blurred ordering pick the solves' winner? *)
  let rank_nx = 40 in
  let cands40 =
    List.filter (fun r -> r mod 4 = 0) (List.init num_rows Fun.id)
  in
  let _, _, scored = price ~nx:rank_nx cands40 in
  (* the screening grids' DCT lengths (160, 40) are 2-5-smooth *)
  let bluestein_free = bluestein () = bluestein0 in
  (* rank.(i) = position of candidate i sorted ascending, ties by index *)
  let rank_positions scores =
    let sorted = List.sort compare (List.mapi (fun i s -> (s, i)) scores) in
    let pos = Array.make (List.length scores) 0 in
    List.iteri (fun r (_, i) -> pos.(i) <- r) sorted;
    pos
  in
  let ex_rank = rank_positions (List.map (fun (ex, _, _, _) -> ex) scored) in
  let bl_rank = rank_positions (List.map (fun (_, bl, _, _) -> bl) scored) in
  let max_disp = ref 0 and winner_blur_rank = ref 0 in
  Array.iteri
    (fun i r ->
       max_disp := max !max_disp (abs (r - bl_rank.(i)));
       if r = 0 then winner_blur_rank := bl_rank.(i))
    ex_rank;
  (* end-to-end: greedy_rows pricing by the blur vs the exact tier *)
  let ex, ff, optimizer =
    head_to_head ("exact", fl)
      ("fft", { fl with Postplace.Flow.screen = Postplace.Flow.Screen_auto })
  in
  j_obj
    [ ("fft_parity",
       j_obj
         [ ("sizes", j_list (List.map (fun (n, _) -> j_i n) parity));
           ("rel_errs", j_list (List.map (fun (_, e) -> j_f e) parity));
           ("max_rel_err", j_f parity_max);
           ("within_1e9", j_b (parity_max <= 1e-9)) ]);
      ("kernel",
       j_obj
         [ ("nx", j_i nx);
           ("mg_build_ms", ms t_mg_build);
           ("characterize_ms", ms t_char);
           ("exact_eval_ms", j_f exact_eval_ms);
           ("blur_eval_ms", j_f blur_eval_ms);
           ("per_candidate_speedup", j_f (exact_eval_ms /. blur_eval_ms));
           ("max_peak_rel_err", j_f (max_rel_err scored160));
           ("bluestein_free", j_b bluestein_free) ]);
      ("screening",
       j_obj
         [ ("nx", j_i rank_nx);
           ("candidates", j_i (List.length cands40));
           ("winner_blur_rank", j_i !winner_blur_rank);
           ("max_rank_displacement", j_i !max_disp);
           ("max_peak_rel_err", j_f (max_rel_err scored));
           ("winner_agrees", j_b (!winner_blur_rank = 0)) ]);
      ("optimizer",
       j_obj
         (optimizer
          @ [ ("exact_evaluations", j_i ex.Postplace.Optimizer.evaluations);
              ("fft_evaluations", j_i ff.Postplace.Optimizer.evaluations);
              ("fft_blur_evaluations",
               j_i ff.Postplace.Optimizer.blur_evaluations);
              ("exact_peak_k", j_f ex.Postplace.Optimizer.predicted_peak_k);
              ("fft_peak_k", j_f ff.Postplace.Optimizer.predicted_peak_k);
              ("plans_agree", j_b (plan_of ff = plan_of ex));
              ("peaks_identical",
               j_b
                 (ff.Postplace.Optimizer.predicted_peak_k
                  = ex.Postplace.Optimizer.predicted_peak_k)) ]));
      ("telemetry",
       j_obj
         [ ("fft_radix2", counter "thermal.fft.radix2");
           ("fft_mixed_radix", counter "thermal.fft.mixed_radix");
           ("fft_bluestein", counter "thermal.fft.bluestein");
           ("blur_kernels", counter "thermal.blur.kernels");
           ("blur_evals", counter "thermal.blur.evals") ]) ]

(* --- ADJOINT SENSITIVITY ------------------------------------------------------------ *)

(* The gradient guide's economics: one adjoint solve prices every
   candidate at once, where the greedy peak guide pays a rank-tolerance
   solve per chunk. Validates the adjoint against a superposition
   central difference, times adjoint vs forward cost, then runs the
   optimizer head-to-head at the production 160x160 grid. *)

let run_adjoint fl =
  (* forward vs adjoint cost and a finite-difference spot check at 40x40 *)
  let nx = 40 in
  let cfg40 = grid fl nx in
  let problem = problem_at fl ~nx fl.Postplace.Flow.base_placement in
  let precond = Thermal.Cg.Multigrid (Thermal.Mesh.multigrid problem) in
  let fwd, t_fwd = time (fun () -> Thermal.Mesh.solve ~precond problem) in
  let adj, t_adj =
    time (fun () -> Thermal.Adjoint.solve ~precond ~forward:fwd problem)
  in
  (* superposition central difference at the most sensitive tile: the
     system is linear, so the perturbed field is T0 +/- eps u with
     u = G^-1 e_tile solved once (same trick as the unit tests) *)
  let fd_rel =
    let zp = cfg40.Thermal.Mesh.stack.Thermal.Stack.power_layer in
    let ix, iy = Geo.Grid.argmax adj.Thermal.Adjoint.sensitivity in
    let e = Array.make (Array.length adj.Thermal.Adjoint.lambda) 0.0 in
    e.(Thermal.Mesh.node_index cfg40 ~ix ~iy ~iz:zp) <- 1.0;
    let u = Thermal.Mesh.solve ~precond (Thermal.Mesh.with_rhs problem e) in
    let shifted s =
      Thermal.Adjoint.smoothed_peak ~sharpness:adj.Thermal.Adjoint.sharpness
        { fwd with
          Thermal.Mesh.temp =
            Array.mapi
              (fun i t -> t +. (s *. u.Thermal.Mesh.temp.(i)))
              fwd.Thermal.Mesh.temp }
    in
    (* smaller step than the unit tests: at 40x40 the impulse response u
       is large enough that beta^2 (eps u)^2 truncation dominates at
       eps = 1e-5; the analytic evaluation tolerates the smaller step *)
    let eps = 1e-7 in
    let fd = (shifted eps -. shifted (-.eps)) /. (2.0 *. eps) in
    let sens = Geo.Grid.get adj.Thermal.Adjoint.sensitivity ~ix ~iy in
    Float.abs (fd -. sens) /. Float.max (Float.abs fd) 1e-30
  in
  (* head-to-head at the production grid: exact greedy (peak guide, exact
     screen) vs the gradient guide *)
  let gr, ad, optimizer =
    head_to_head ("greedy", fl)
      ("gradient",
       { fl with Postplace.Flow.guide = Postplace.Flow.Guide_gradient })
  in
  let greedy_evals = gr.Postplace.Optimizer.evaluations in
  let grad_evals = ad.Postplace.Optimizer.evaluations in
  let grad_adjoints = ad.Postplace.Optimizer.adjoint_evaluations in
  let grad_total = grad_evals + grad_adjoints in
  let peak_gr = gr.Postplace.Optimizer.predicted_peak_k in
  let peak_ad = ad.Postplace.Optimizer.predicted_peak_k in
  let peak_delta = peak_ad -. peak_gr in
  j_obj
    [ ("adjoint_solve",
       j_obj
         [ ("nx", j_i nx);
           ("forward_ms", ms t_fwd);
           ("adjoint_ms", ms t_adj);
           ("adjoint_vs_forward", j_f (t_adj /. t_fwd));
           ("forward_iterations", j_i fwd.Thermal.Mesh.cg_iterations);
           ("adjoint_iterations", j_i adj.Thermal.Adjoint.cg_iterations);
           ("fd_rel_err", j_f fd_rel);
           ("fd_within_1e6", j_b (fd_rel <= 1e-6)) ]);
      ("optimizer",
       j_obj
         (optimizer
          @ [ ("greedy_evaluations", j_i greedy_evals);
              ("gradient_evaluations", j_i grad_evals);
              ("gradient_adjoint_evaluations", j_i grad_adjoints);
              ("solve_ratio",
               j_f (float_of_int greedy_evals /. float_of_int grad_total));
              ("solve_ratio_ge_3x", j_b (greedy_evals >= 3 * grad_total));
              ("greedy_peak_k", j_f peak_gr);
              ("gradient_peak_k", j_f peak_ad);
              ("peak_delta_k", j_f peak_delta);
              ("peak_within_tol", j_b (peak_delta <= 0.05)) ]));
      ("telemetry",
       j_obj
         [ ("adjoint_solves", counter "thermal.adjoint.solves");
           ("adjoint_iterations", hist_sum "thermal.adjoint.iterations");
           ("optimizer_adjoint_solves", counter "optimizer.adjoint_solves") ]) ]

(* --- serve: batch server throughput and fault isolation ----------------- *)

(* The batch server's two load-bearing claims, measured:
   - same-fingerprint batching: N jobs sharing a config pay one flow
     prepare (mesh + multigrid + blur state) instead of N, so a batched
     run must beat a one-process-per-job baseline that cold-prepares
     every job;
   - fault isolation: adding one poisoned job to the batch changes
     nothing — bit for bit — about its mates' result payloads, and the
     poisoned job itself fails with the structured invariant exit. *)
let run_serve () =
  let n_jobs = 6 in
  let job ?(extra = "") id =
    {|{"id":"|} ^ id ^ {|","test_set":"small","technique":"eri","cycles":600|}
    ^ extra ^ "}"
  in
  let clean_lines = List.init n_jobs (fun i -> job ("j" ^ string_of_int i)) in
  let serve_config =
    { Serve.Server.default_config with
      Serve.Server.ledger = None;
      handle_sigterm = false }
  in
  (* One in-process server round trip over [lines]: write the request
     file, serve it to EOF, read the responses back keyed by job id. *)
  let run_server lines =
    let in_path = Filename.temp_file "bench_serve_in" ".jsonl" in
    let out_path = Filename.temp_file "bench_serve_out" ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove in_path;
        Sys.remove out_path)
      (fun () ->
        Out_channel.with_open_text in_path (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) lines);
        let fd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
        let out_ch = open_out out_path in
        let summary =
          Fun.protect
            ~finally:(fun () ->
              Unix.close fd;
              close_out out_ch)
            (fun () ->
              Serve.Server.run ~config:serve_config ~input:fd ~output:out_ch
                ())
        in
        let responses =
          In_channel.with_open_text out_path In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter_map (fun l ->
              match Obs.Json.of_string l with
              | Ok json ->
                Option.bind (Obs.Json.member "id" json) Obs.Json.to_string_opt
                |> Option.map (fun id -> (id, json))
              | Error _ -> None)
        in
        (summary, responses))
  in
  (* [name] of job [id]'s response through [conv], or [default] *)
  let field resp id name conv default =
    Option.bind (List.assoc_opt id resp) (Obs.Json.member name)
    |> Fun.flip Option.bind conv
    |> Option.value ~default
  in
  let outcome resp id =
    field resp id "outcome" Obs.Json.to_string_opt "missing"
  in
  (* One untimed run warms the process (FFT plans, heap) so the timed
     batched run measures steady-state serving, then time it against the
     per-job baseline where every job pays a cold prepare (one server per
     job shares no flow). *)
  ignore (run_server clean_lines);
  let (batched_summary, batched), t_batched =
    time (fun () -> run_server clean_lines)
  in
  let _, t_per_job =
    time (fun () ->
        List.map
          (fun l -> run_server [ l ])
          clean_lines)
  in
  let all_ok =
    List.length batched = n_jobs
    && List.for_all (fun (id, _) -> outcome batched id = "ok") batched
  in
  let single_batch = batched_summary.Serve.Server.batches = 1 in
  let speedup = t_per_job /. t_batched in
  (* Fault isolation: re-run the same file plus one nan_power-poisoned
     mate with an identical config (same fingerprint, so it joins the
     batch). The clean jobs' deterministic [result] payloads must be
     bit-identical to the fault-free run; the mate alone fails. *)
  let poisoned_lines =
    clean_lines @ [ job ~extra:{|,"faults":"nan_power"|} "poisoned" ]
  in
  let _, with_fault = run_server poisoned_lines in
  let result_str resp id =
    field resp id "result"
      (fun j -> Some (Obs.Json.to_string j))
      ("missing:" ^ id)
  in
  let mates_identical =
    List.for_all
      (fun (id, _) -> result_str batched id = result_str with_fault id)
      batched
  in
  let fault_exit =
    field with_fault "poisoned" "exit_code" Obs.Json.to_int (-1)
  in
  let fault_isolated =
    mates_identical
    && outcome with_fault "poisoned" = "failed"
    && fault_exit = 11
  in
  (* Retry: a transient cg_stall:8 under the default policy (2 retries)
     recovers on the clean second attempt; with retries disabled the
     same job fails with the solver-divergence exit. *)
  let _, retry =
    run_server
      [ job ~extra:{|,"faults":"cg_stall:8","max_retries":2|} "transient";
        job ~extra:{|,"faults":"cg_stall:8","max_retries":0|} "hopeless" ]
  in
  let attempts id = field retry id "attempts" Obs.Json.to_int (-1) in
  let retry_recovers =
    outcome retry "transient" = "ok" && attempts "transient" = 2
  in
  let no_retry_fails =
    outcome retry "hopeless" = "failed" && attempts "hopeless" = 1
  in
  j_obj
    [ ("batching",
       j_obj
         [ ("jobs", j_i n_jobs);
           ("batches", j_i batched_summary.Serve.Server.batches);
           ("batched_ms", ms t_batched);
           ("per_job_ms", ms t_per_job);
           ("batching_speedup", j_f speedup);
           ("all_ok", j_b all_ok);
           ("single_batch", j_b single_batch);
           ("speedup_ok", j_b (speedup >= 1.5)) ]);
      ("fault_isolation",
       j_obj
         [ ("mates_identical", j_b mates_identical);
           ("fault_exit_code", j_i fault_exit);
           ("fault_isolated", j_b fault_isolated) ]);
      ("retry",
       j_obj
         [ ("transient_attempts", j_i (attempts "transient"));
           ("retry_recovers", j_b retry_recovers);
           ("no_retry_fails", j_b no_retry_fails) ]) ]

(* --- trial statistics --------------------------------------------------- *)

let is_time_key k =
  let n = String.length k in
  n >= 3 && String.sub k (n - 3) 3 = "_ms"

(* Nearest-rank quantile of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* Merge N structurally-identical trial summaries: "_ms" leaves become
   {median, min, max, iqr, trials} statistics objects, booleans are
   ANDed (one flaky false must still trip the gate), everything else
   keeps the first trial's value. Shapes recurse; a list whose length
   varies across trials falls back to the first trial verbatim. *)
let rec merge_trials key vals =
  match vals with
  | [] -> Obs.Json.Null
  | first :: _ ->
    let floats = List.map Obs.Json.to_float vals in
    if is_time_key key && List.for_all Option.is_some floats then begin
      let a = Array.of_list (List.map Option.get floats) in
      Array.sort compare a;
      let n = Array.length a in
      j_obj
        [ ("median", j_f (quantile a 0.50));
          ("min", j_f a.(0));
          ("max", j_f a.(n - 1));
          ("iqr", j_f (quantile a 0.75 -. quantile a 0.25));
          ("trials", j_i n) ]
    end
    else
      match first with
      | Obs.Json.Obj fields ->
        Obs.Json.Obj
          (List.map
             (fun (k, _) ->
                (k, merge_trials k (List.filter_map (Obs.Json.member k) vals)))
             fields)
      | Obs.Json.List items ->
        let lists = List.filter_map Obs.Json.to_list vals in
        if
          List.length lists = List.length vals
          && List.for_all
               (fun l -> List.length l = List.length items)
               lists
        then
          Obs.Json.List
            (List.mapi
               (fun i _ -> merge_trials key (List.map (fun l -> List.nth l i) lists))
               items)
        else first
      | Obs.Json.Bool _ ->
        Obs.Json.Bool
          (List.for_all
             (function Obs.Json.Bool b -> b | _ -> true)
             vals)
      | v -> v

let trials = ref 1

(* --- text rendering ------------------------------------------------------ *)

let scalar = function
  | Obs.Json.Null -> Some "-"
  | Obs.Json.Bool b -> Some (string_of_bool b)
  | Obs.Json.Int i -> Some (string_of_int i)
  | Obs.Json.Float f -> Some (Printf.sprintf "%.6g" f)
  | Obs.Json.String s -> Some s
  | Obs.Json.List _ | Obs.Json.Obj _ -> None

(* A list of objects sharing one key list, with scalar values only, as
   (header, rows of cells). *)
let table = function
  | Obs.Json.Obj first :: _ as items ->
    let keys = List.map fst first in
    let cells = function
      | Obs.Json.Obj fields when List.map fst fields = keys ->
        let cs = List.filter_map (fun (_, v) -> scalar v) fields in
        if List.length cs = List.length keys then Some cs else None
      | _ -> None
    in
    let rows = List.filter_map cells items in
    if List.length rows = List.length items then Some (keys, rows) else None
  | _ -> None

(* First column left-aligned, the others right-aligned. *)
let print_table path (keys, rows) =
  let widths =
    List.fold_left
      (List.map2 (fun w c -> max w (String.length c)))
      (List.map String.length keys) rows
  in
  let line cells =
    String.concat "  "
      (List.mapi
         (fun i (w, c) ->
            if i = 0 then Printf.sprintf "%-*s" w c
            else Printf.sprintf "%*s" w c)
         (List.combine widths cells))
  in
  Printf.printf "%s:\n" path;
  List.iter (fun r -> Printf.printf "  %s\n" (line r)) (keys :: rows)

let rec render path json =
  let sub k = if path = "" then k else path ^ "." ^ k in
  match (scalar json, json) with
  | Some s, _ -> Printf.printf "%s: %s\n" path s
  | None, Obs.Json.Obj fields ->
    List.iter (fun (k, v) -> render (sub k) v) fields
  | None, Obs.Json.List items ->
    (match (table items, List.filter_map scalar items) with
     | Some t, _ -> print_table path t
     | None, cells when List.length cells = List.length items ->
       Printf.printf "%s: [%s]\n" path (String.concat ", " cells)
     | None, _ ->
       List.iteri (fun i v -> render (Printf.sprintf "%s[%d]" path i) v) items)
  | None, _ -> ()

(* --- suites ---------------------------------------------------------------- *)

type suite = {
  name : string;
  title : string;
  paper_ref : string;
  paper : bool;  (** one of the paper experiments [all] runs *)
  run : unit -> Obs.Json.t;
}

let suite ?(paper = true) name title paper_ref run =
  { name; title; paper_ref; paper; run }

let engineering = "n/a (engineering)"

let suites =
  [ suite "fig5" "FIG 5 -- power and thermal profiles of test set 1"
      "Fig. 5: 40x40 maps; 'significant correlation between highly power \
       consuming area and thermal hotspots'"
      run_fig5;
    suite "fig6" "FIG 6 -- temperature reduction vs area overhead (test set 1)"
      "Fig. 6: Default / ERI / HW curves, 0..40% overhead; both ERI and HW \
       above Default, gap grows with overhead, ERI vs HW within a small \
       margin"
      run_fig6;
    suite "table1" "TABLE I -- concentrated hotspot (test set 2)"
      "Table I: Default 16.1%->11.3%, 32.2%->20.2%; ERI (20 rows) \
       16.1%->13.1%, (40 rows) 32.2%->28.6%"
      run_table1;
    suite "timing" "TIMING -- critical-path overhead of the techniques"
      "in-text: 'the maximum timing overhead caused by applying the proposed \
       methods is around 2%'"
      run_timing;
    suite "congestion" "CONGESTION -- ERI by-product in the hotspot region"
      "in-text: ERI 'increases the distance between rows of cells, thus \
       reducing routing congestion in the hotspot regions'"
      run_congestion;
    suite "ablation" "ABLATION -- ERI row-placement granularity (test set 2)"
      "design choice behind paper SIII-A: interleaving empty rows vs dropping \
       one block; plus the future-work greedy optimizer"
      run_ablation;
    suite "optimizer" "OPTIMIZER -- greedy empty-row budget allocation"
      "paper future work: 'transforming them into suitable optimization \
       problems (e.g., the amount of empty rows ... to be inserted)'"
      run_optimizer;
    suite "electrothermal" "ELECTROTHERMAL -- leakage/temperature feedback"
      "paper SI motivation: 'the positive feedback between leakage power and \
       temperature further exacerbates the thermal problem'"
      run_electrothermal;
    suite "package" "PACKAGE -- sensitivity to heat-removal capability"
      "paper SII: 'it is possible to have different peak temperature and \
       temperature gradient by using cooling mechanisms with different heat \
       removal capabilities'"
      run_package;
    suite "baselines"
      "BASELINES -- placement-time vs post-placement thermal awareness"
      "paper SI: thermal-aware floorplanning exists at the architecture level \
       (refs [7][8]); this compares a placement-time power-aware spreader \
       against the paper's post-placement techniques at matched overhead"
      run_baselines;
    suite "glitch" "GLITCH -- zero-delay vs event-driven activity"
      "fidelity study: the paper annotates activity from VCS (event-driven); \
       our cycle engine misses glitch transitions, quantified here"
      run_glitch;
    suite "guide" "GUIDE -- gradient-guided vs peak-guided allocation"
      (engineering
       ^ ": same row budget, full-mesh committed peaks, with the ERI and HW \
          heuristics as controls")
      run_guide;
    suite "transient" "TRANSIENT -- validating the steady-state assumption"
      "paper SII: 'the thermal time constant is in the order of tens of \
       milliseconds, much larger than the clock periods in nanoseconds... we \
       can neglect transient currents and solve at the steady state'"
      run_transient;
    suite ~paper:false "perf" "PERF -- kernel micro-benchmarks (bechamel)"
      engineering run_perf;
    suite ~paper:false "cg"
      "CG ENGINE -- warm starts, preconditioning, domains"
      (engineering
       ^ ": incremental + parallel solve engine vs seed behaviour")
      (kernel_suite run_cg);
    suite ~paper:false "mg"
      "MG ENGINE -- geometric multigrid V-cycle preconditioner"
      (engineering
       ^ ": multigrid-preconditioned CG vs Jacobi/SSOR-CG across mesh sizes")
      (kernel_suite run_mg);
    suite ~paper:false "fft"
      "FFT SCREENING -- Green's-function power blurring tier"
      (engineering
       ^ ": candidates priced by the exact blur, one re-score solve, vs \
          all-exact evaluation")
      (kernel_suite run_fft);
    suite ~paper:false "adjoint"
      "ADJOINT SENSITIVITY -- gradient-guided whitespace allocation"
      (engineering
       ^ ": adjoint-priced candidate ranking vs per-chunk exact evaluation")
      (kernel_suite run_adjoint);
    suite ~paper:false "serve"
      "BATCH SERVE -- same-fingerprint batching, fault isolation, retry"
      (engineering ^ ": thermoplace serve vs one process per job")
      run_serve ]

(* Runs a suite --trials times, prints its header and the (merged)
   summary once, writes the summary to BENCH_<name>.json so downstream
   tooling can diff runs without scraping stdout, and appends one ledger
   record per suite so the perf trajectory accumulates across
   invocations. *)
let run_and_emit s =
  let rule = String.make 78 '-' in
  Printf.printf "\n%s\n%s\n(paper reference: %s)\n%s\n" rule s.title
    s.paper_ref rule;
  let t0 = Obs.Clock.now () in
  let summaries = List.init !trials (fun _ -> s.run ()) in
  let elapsed_ms = (Obs.Clock.now () -. t0) *. 1e3 in
  let summary =
    match summaries with
    | [ one ] -> one
    | many -> merge_trials "summary" many
  in
  render "" summary;
  let path = Printf.sprintf "BENCH_%s.json" s.name in
  let json =
    Obs.Json.Obj
      [ ("experiment", j_s s.name); ("trials", j_i !trials);
        ("summary", summary) ]
  in
  Obs.Report.write_file path json;
  Printf.printf "[wrote %s]\n%!" path;
  Obs.Ledger.append_or_warn ~prog:"bench" (Obs.Ledger.resolve_path ())
    (Obs.Ledger.make_record
       ~command:("bench:" ^ s.name)
       ~fingerprint:
         (Printf.sprintf "bench=%s|trials=%d|jobs=%d" s.name !trials
            (Parallel.Pool.jobs ()))
       ~config:
         [ ("experiment", j_s s.name); ("trials", j_i !trials);
           ("jobs", j_i (Parallel.Pool.jobs ())) ]
       ~phases_ms:[ ("bench_ms", elapsed_ms); ("total_ms", elapsed_ms) ]
       ~metrics:(Obs.Metrics.summary_json ()) ~outcome:"ok" ~exit_code:0 ())

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --jobs N / --trials N anywhere on the line *)
  let rec strip_opts = function
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some k when k >= 1 ->
         Parallel.Pool.set_jobs k;
         strip_opts rest
       | _ ->
         Printf.eprintf "--jobs expects an integer >= 1, got %S\n" n;
         exit 2)
    | "--trials" :: n :: rest ->
      (match int_of_string_opt n with
       | Some k when k >= 1 ->
         trials := k;
         strip_opts rest
       | _ ->
         Printf.eprintf "--trials expects an integer >= 1, got %S\n" n;
         exit 2)
    | x :: rest -> x :: strip_opts rest
    | [] -> []
  in
  match strip_opts args with
  | [] | [ "all" ] ->
    List.iter run_and_emit (List.filter (fun s -> s.paper) suites)
  | [ name ] when List.exists (fun s -> s.name = name) suites ->
    run_and_emit (List.find (fun s -> s.name = name) suites)
  | other ->
    Printf.eprintf "unknown experiment %s; expected one of all, %s\n"
      (String.concat " " other)
      (String.concat ", " (List.map (fun s -> s.name) suites));
    exit 2
