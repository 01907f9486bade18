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
                                           ...) or an engineering suite
                                           (perf, solve, serve)

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

(* A metrics counter; one never bumped reads 0. *)
let count name = Option.value ~default:0 (Obs.Metrics.counter_value name)

(* The "rows" table of a summary: one flat object per row. *)
let rows_field f rows = ("rows", j_list (List.map (fun r -> j_obj (f r)) rows))

(* A suite whose summary is that table alone, over the rows [experiment]
   returns on [flow]. *)
let rows_suite flow experiment f () =
  j_obj [ rows_field f (experiment (Lazy.force flow)) ]

(* [fl]'s stack on an nx x nx grid, and placement [pl]'s power binned on
   it. *)
let grid fl nx = { fl.Postplace.Flow.mesh_config with Thermal.Mesh.nx; ny = nx }

let power_at fl ~nx pl =
  Power.Map.power_map pl ~per_cell_w:fl.Postplace.Flow.per_cell_w ~nx ~ny:nx

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
  let solves () = count "thermal.modal.solves" + count "thermal.cg.solves" in
  let solves0 = solves () in
  let fig6 = Postplace.Experiment.run_fig6 fl in
  let thermal_solves = solves () - solves0 in
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
      (* one per evaluation: the base and every point *)
      ("thermal_solves", j_i thermal_solves);
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
         ("blur_evaluations", j_i r.gd_blur_evaluations);
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
      [ Test.make ~name:"thermal:modal-solve-40x40x9"
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

(* --- SOLVE: the one flow solver and the pricing built on it ------------------ *)

let time f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.now () -. t0)

let ms t = j_f (t *. 1e3)

(* Mean seconds per call of [f] over [reps] calls. Metrics are off
   meanwhile, so the telemetry block counts one pass per grid size
   whatever [reps] is. *)
let mean_time ~reps f =
  let saved = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled saved) @@ fun () ->
  let total = ref 0.0 in
  for _ = 1 to reps do
    total := !total +. snd (time f)
  done;
  !total /. float_of_int reps

(* Repetitions of the blur characterization, one blur evaluation and one
   modal solve per grid size: each step's timed total clears 10 ms, so
   one GC slice moves its mean by a fraction of Obs.Gate's 1 ms floor. *)
let reps_at = function
  | 20 -> (1024, 512, 64)
  | 40 -> (256, 128, 16)
  | 80 -> (64, 32, 4)
  | _ -> (16, 8, 1)

let plan_of (r : Postplace.Optimizer.result) =
  r.Postplace.Optimizer.plan.Postplace.Technique.inserted_after

(* Registry reads for the telemetry block: a counter never bumped reads
   0 ([count]), a histogram its sum. *)
let counter name = j_i (count name)

let hist_sum name =
  match Obs.Metrics.histogram name with
  | None -> j_i 0
  | Some h -> j_i (int_of_float h.Obs.Metrics.sum)

(* Relative error of the library FFT against a naive O(n^2) DFT of a
   random complex vector. *)
let fft_parity_err n =
  let st = Random.State.make [| 1997; n |] in
  let re = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let im = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let fr = Array.copy re and fi = Array.copy im in
  Thermal.Fft.fft ~re:fr ~im:fi;
  let scale = ref 0.0 and err = ref 0.0 in
  for k = 0 to n - 1 do
    let sr = ref 0.0 and si = ref 0.0 in
    for t = 0 to n - 1 do
      let ang = -2.0 *. Float.pi *. float_of_int (k * t) /. float_of_int n in
      sr := !sr +. (re.(t) *. cos ang) -. (im.(t) *. sin ang);
      si := !si +. (re.(t) *. sin ang) +. (im.(t) *. cos ang)
    done;
    scale := Float.max !scale (Float.hypot !sr !si);
    err := Float.max !err (Float.hypot (fr.(k) -. !sr) (fi.(k) -. !si))
  done;
  !err /. !scale

(* The steady-state engine and what is priced on it, on test set 1's
   base power map: per grid size the modal solve every fault-free flow
   solve runs, held to its own measured residual, and the exact blur,
   held to that solve; the adjoint on the default path with a
   central-difference check; greedy_rows under both guides at the
   production grid, and on 1 against 2 domains at 40x40; FFT parity.
   Every count is exact, so bench_diff holds it to its baseline. Each
   trial runs on a fresh metrics registry and a 1-domain pool, restored
   to the caller's size however the suite exits. *)
let run_solve () =
  let saved_jobs = Parallel.Pool.jobs () in
  Obs.Metrics.reset ();
  Parallel.Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs saved_jobs)
  @@ fun () ->
  let fl = Lazy.force flow1 in
  let base = fl.Postplace.Flow.base_placement in
  let at40 = ref None in
  let size_rows =
    List.map
      (fun nx ->
         let power = power_at fl ~nx base in
         let problem = Thermal.Mesh.build (grid fl nx) ~power in
         let char_reps, eval_reps, modal_reps = reps_at nx in
         let modal = Thermal.Mesh.solve problem in
         let t_modal =
           mean_time ~reps:modal_reps (fun () -> Thermal.Mesh.solve problem)
         in
         let characterize () =
           Thermal.Mesh.blur (grid fl nx) ~extent:(Geo.Grid.extent power)
         in
         let kernel = characterize () in
         let t_char = mean_time ~reps:char_reps characterize in
         let field = Thermal.Blur.field kernel ~power in
         let t_blur =
           mean_time ~reps:eval_reps (fun () -> Thermal.Blur.field kernel ~power)
         in
         let solved = Thermal.Mesh.active_layer_grid modal in
         let gap = ref 0.0 in
         Geo.Grid.iteri solved ~f:(fun ~ix ~iy v ->
             gap :=
               Float.max !gap (Float.abs (Geo.Grid.get field ~ix ~iy -. v)));
         if nx = 40 then at40 := Some (problem, modal, t_modal);
         j_obj
           [ ("nx", j_i nx);
             ("modal_ms", ms t_modal);
             ("modal_residual_within_1e10",
              j_b (modal.Thermal.Mesh.cg_residual <= 1e-10));
             ("characterize_ms", ms t_char);
             ("blur_eval_ms", ms t_blur);
             ("blur_within_1e9",
              j_b (!gap <= 1e-9 *. Geo.Grid.max_value solved)) ])
      [ 20; 40; 80; 160 ]
  in
  (* the adjoint of the smoothed peak at 40x40 on the default path,
     checked by a central difference through superposition: the system
     is linear, so the perturbed field is T0 +/- eps u with
     u = G^-1 e_tile, solved once *)
  let problem, fwd, t_fwd = Option.get !at40 in
  let _, _, modal_reps = reps_at 40 in
  let adjoint () = Thermal.Adjoint.solve ~forward:fwd problem in
  let adj = adjoint () in
  let t_adj = mean_time ~reps:modal_reps adjoint in
  let fd_rel =
    let cfg = Thermal.Mesh.config problem in
    let zp = cfg.Thermal.Mesh.stack.Thermal.Stack.power_layer in
    let ix, iy = Geo.Grid.argmax adj.Thermal.Adjoint.sensitivity in
    let e = Array.make (Array.length adj.Thermal.Adjoint.lambda) 0.0 in
    e.(Thermal.Mesh.node_index cfg ~ix ~iy ~iz:zp) <- 1.0;
    let u = Thermal.Mesh.solve (Thermal.Mesh.with_rhs problem e) in
    let shifted s =
      Thermal.Adjoint.smoothed_peak ~sharpness:adj.Thermal.Adjoint.sharpness
        { fwd with
          Thermal.Mesh.temp =
            Array.mapi
              (fun i t -> t +. (s *. u.Thermal.Mesh.temp.(i)))
              fwd.Thermal.Mesh.temp }
    in
    (* at 40x40 the impulse response is large enough that truncation
       dominates at the unit tests' eps = 1e-5 *)
    let eps = 1e-7 in
    let fd = (shifted eps -. shifted (-.eps)) /. (2.0 *. eps) in
    let sens = Geo.Grid.get adj.Thermal.Adjoint.sensitivity ~ix ~iy in
    Float.abs (fd -. sens) /. Float.max (Float.abs fd) 1e-30
  in
  let greedy ?(nx = 40) guide =
    Postplace.Optimizer.greedy_rows fl ~rows:8 ~guide ~coarse_nx:nx ()
  in
  let peak = Postplace.Flow.Guide_peak in
  let gradient = Postplace.Flow.Guide_gradient in
  (* both guides at the production grid *)
  let guide name g =
    let r, t = time (fun () -> greedy ~nx:160 g) in
    ( r,
      j_obj
        [ ("guide", j_s name);
          ("greedy_ms", ms t);
          ("evaluations", j_i r.Postplace.Optimizer.evaluations);
          ("blur_evaluations", j_i r.Postplace.Optimizer.blur_evaluations);
          ("adjoint_evaluations",
           j_i r.Postplace.Optimizer.adjoint_evaluations);
          ("plan", j_list (List.map j_i (plan_of r)));
          ("peak_k", j_f r.Postplace.Optimizer.predicted_peak_k) ] )
  in
  let by_peak, peak_row = guide "peak" peak in
  let by_grad, grad_row = guide "gradient" gradient in
  (* 1 against 2 domains *)
  let same a b =
    plan_of a = plan_of b
    && a.Postplace.Optimizer.predicted_peak_k
       = b.Postplace.Optimizer.predicted_peak_k
  in
  let on_two g =
    Parallel.Pool.set_jobs 2;
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.set_jobs 1)
      (fun () -> greedy g)
  in
  let parallel_identical =
    same (greedy peak) (on_two peak) && same (greedy gradient) (on_two gradient)
  in
  (* every grid above is 2-5-smooth; parity then adds lengths 60 and 127 *)
  let bluestein_free = count "thermal.fft.bluestein" = 0 in
  let lengths = [ 8; 40; 60; 127 ] in
  let parity = List.map fft_parity_err lengths in
  j_obj
    [ ("sizes", j_list size_rows);
      ("adjoint",
       j_obj
         [ ("nx", j_i 40);
           ("forward_ms", ms t_fwd);
           ("adjoint_ms", ms t_adj);
           ("forward_iterations", j_i fwd.Thermal.Mesh.cg_iterations);
           ("adjoint_iterations", j_i adj.Thermal.Adjoint.cg_iterations);
           ("fd_rel_err", j_f fd_rel);
           ("fd_within_1e6", j_b (fd_rel <= 1e-6)) ]);
      ("guides", j_list [ peak_row; grad_row ]);
      ("peak_within_tol",
       j_b
         (by_grad.Postplace.Optimizer.predicted_peak_k
          -. by_peak.Postplace.Optimizer.predicted_peak_k
          <= 0.05));
      ("parallel_bit_identical", j_b parallel_identical);
      ("fft",
       j_obj
         [ ("parity_lengths", j_list (List.map j_i lengths));
           ("parity_within_1e9",
            j_b (List.for_all (fun e -> e <= 1e-9) parity));
           ("bluestein_free", j_b bluestein_free) ]);
      ("telemetry",
       j_obj
         [ ("cg_solves", counter "thermal.cg.solves");
           ("modal_solves", counter "thermal.modal.solves");
           ("cg_iterations", hist_sum "thermal.cg.iterations");
           ("blur_evals", counter "thermal.blur.evals");
           ("adjoint_solves", counter "thermal.adjoint.solves");
           ("fft_radix2", counter "thermal.fft.radix2");
           ("fft_mixed_radix", counter "thermal.fft.mixed_radix");
           ("fft_bluestein", counter "thermal.fft.bluestein") ]) ]

(* --- serve: batch server throughput and fault isolation ----------------- *)

(* The batch server's two load-bearing claims, measured:
   - same-fingerprint batching: N jobs sharing a config pay one flow
     prepare (activity, placement and the base evaluation) instead of N,
     so a batched run must beat a one-process-per-job baseline that
     cold-prepares every job;
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
     rounds measure steady-state serving. Each round times the batched
     run, then the per-job baseline where every job pays a cold prepare
     (one server per job shares no flow); each side keeps its fastest
     round, so host noise in one round cannot flip the speedup. *)
  ignore (run_server clean_lines);
  let rounds = 3 in
  let timed =
    List.init rounds (fun _ ->
        let batched, t_batched = time (fun () -> run_server clean_lines) in
        let _, t_per_job =
          time (fun () -> List.map (fun l -> run_server [ l ]) clean_lines)
        in
        (batched, t_batched, t_per_job))
  in
  let (batched_summary, batched), _, _ = List.hd timed in
  let fastest f =
    List.fold_left (fun m r -> Float.min m (f r)) infinity timed
  in
  let t_batched = fastest (fun (_, t, _) -> t) in
  let t_per_job = fastest (fun (_, _, t) -> t) in
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
           ("rounds", j_i rounds);
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
    suite ~paper:false "solve"
      "SOLVE -- the modal solve, the blur, the adjoint and the optimizer \
       on them"
      (engineering
       ^ ": the modal engine against its measured residual across grid \
          sizes, the exact blur against the modal solve, the adjoint \
          against its central difference, both guides at 160x160")
      run_solve;
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
