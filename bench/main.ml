(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (plus the in-text claims and our ablations), and runs
   bechamel micro-benchmarks of the core kernels.

   Each experiment prints its text table and also writes a machine-readable
   summary to BENCH_<name>.json in the current directory.

   Usage:
     dune exec bench/main.exe            -- every experiment (no perf)
     dune exec bench/main.exe -- fig5    -- power/thermal profile maps
     dune exec bench/main.exe -- fig6    -- reduction vs overhead curves
     dune exec bench/main.exe -- table1  -- concentrated-hotspot table
     dune exec bench/main.exe -- timing  -- critical-path overheads
     dune exec bench/main.exe -- congestion
     dune exec bench/main.exe -- ablation
     dune exec bench/main.exe -- optimizer
     dune exec bench/main.exe -- perf    -- bechamel kernels
     dune exec bench/main.exe -- cg      -- solve-engine speedup study
     dune exec bench/main.exe -- mg      -- multigrid preconditioner study
     dune exec bench/main.exe -- fft     -- FFT blur screening-tier study

   `--jobs N` anywhere on the line sizes the domain pool. `--trials N`
   runs each selected suite N times and replaces every wall-clock
   ("_ms") leaf of the summary with {median, min, max, iqr, trials}
   statistics, so bench_diff can gate medians inside a noise-aware band
   instead of a single sample; boolean invariants are ANDed across
   trials. Every suite also appends one record to the run ledger
   (THERMOPLACE_LEDGER; "none" disables). *)

let line = String.make 78 '-'

let header title paper_ref =
  Printf.printf "\n%s\n%s\n(paper reference: %s)\n%s\n" line title paper_ref
    line

let sim_cycles = 1000

let flow1 = lazy (Postplace.Experiment.test_set_1 ~sim_cycles ())
let flow2 = lazy (Postplace.Experiment.test_set_2 ~sim_cycles ())

(* Each run_X returns the JSON summary that lands in BENCH_<name>.json. *)

let j_obj fields = Obs.Json.Obj fields
let j_list items = Obs.Json.List items
let j_f v = Obs.Json.Float v
let j_i v = Obs.Json.Int v
let j_s v = Obs.Json.String v
let j_b v = Obs.Json.Bool v

(* Percentile summary of a recorded histogram: the reservoir keeps an
   unbiased sample of the whole stream, so p50/p90/p99 describe the full
   run, not its first 4096 observations. *)
let hist_percentiles name =
  match Obs.Metrics.histogram name with
  | None -> Obs.Json.Null
  | Some h ->
    j_obj
      [ ("count", j_i h.Obs.Metrics.count);
        ("p50", j_f (Obs.Metrics.percentile h 0.50));
        ("p90", j_f (Obs.Metrics.percentile h 0.90));
        ("p99", j_f (Obs.Metrics.percentile h 0.99)) ]

(* --- FIG 5 ------------------------------------------------------------- *)

let run_fig5 () =
  header "FIG 5 -- power and thermal profiles of test set 1"
    "Fig. 5: 40x40 maps; 'significant correlation between highly power \
     consuming area and thermal hotspots'";
  let fl = Lazy.force flow1 in
  let power, thermal = Postplace.Experiment.fig5_maps fl in
  Printf.printf "power map [W per tile], 40x40, top row first:\n";
  Format.printf "%a@." Geo.Grid.pp_rows power;
  Printf.printf "thermal map [K rise over ambient], 40x40, top row first:\n";
  Format.printf "%a@." Geo.Grid.pp_rows thermal;
  let m = Thermal.Metrics.of_map thermal in
  Format.printf "summary: %a@." Thermal.Metrics.pp m;
  let px, py = Geo.Grid.argmax power in
  let tx, ty = Geo.Grid.argmax thermal in
  Printf.printf
    "peak power tile (%d,%d) vs peak thermal tile (%d,%d) -- the paper's \
     correlation claim\n"
    px py tx ty;
  j_obj
    [ ("thermal", Thermal.Metrics.to_json m);
      ("peak_power_tile", j_list [ j_i px; j_i py ]);
      ("peak_thermal_tile", j_list [ j_i tx; j_i ty ]) ]

(* --- FIG 6 ------------------------------------------------------------- *)

let pp_points points =
  Printf.printf "%-10s %12s %14s %16s %12s\n" "scheme" "overhead[%]"
    "dT-peak red[%]" "gradient red[%]" "timing[+%]";
  List.iter
    (fun (p : Postplace.Experiment.point) ->
       Printf.printf "%-10s %12.2f %14.2f %16.2f %12.2f\n"
         p.Postplace.Experiment.scheme p.area_overhead_pct
         p.temp_reduction_pct p.gradient_reduction_pct p.timing_overhead_pct)
    points

let run_fig6 () =
  header "FIG 6 -- temperature reduction vs area overhead (test set 1)"
    "Fig. 6: Default / ERI / HW curves, 0..40% overhead; both ERI and HW \
     above Default, gap grows with overhead, ERI vs HW within a small \
     margin";
  let fl = Lazy.force flow1 in
  let fig6 = Postplace.Experiment.run_fig6 fl in
  let base = fig6.Postplace.Experiment.base_eval in
  Format.printf "base placement: %a@." Place.Placement.pp_summary
    base.Postplace.Flow.placement;
  Format.printf "base thermal:   %a@." Thermal.Metrics.pp
    base.Postplace.Flow.metrics;
  Printf.printf "hotspots: %d detected (paper: four scattered small)\n\n"
    (List.length base.Postplace.Flow.hotspots);
  let points =
    fig6.Postplace.Experiment.default_points
    @ fig6.Postplace.Experiment.eri_points
    @ fig6.Postplace.Experiment.hw_points
  in
  pp_points points;
  (* the paper's qualitative checks, verified on the spot *)
  let reductions pts =
    List.map (fun (p : Postplace.Experiment.point) -> p.temp_reduction_pct)
      pts
  in
  let d = reductions fig6.Postplace.Experiment.default_points in
  let e = reductions fig6.Postplace.Experiment.eri_points in
  let h = reductions fig6.Postplace.Experiment.hw_points in
  let all_above a b = List.for_all2 (fun x y -> x > y) a b in
  let eri_above = all_above e d in
  let hw_above = all_above h d in
  let monotone =
    List.for_all (fun xs -> xs = List.sort compare xs) [ d; e ]
  in
  Printf.printf "\ncheck: ERI curve above Default at every point: %b\n"
    eri_above;
  Printf.printf "check: HW curve above Default at every point:  %b\n"
    hw_above;
  Printf.printf "check: effectiveness increases with overhead:  %b\n"
    monotone;
  j_obj
    [ ("base_thermal", Thermal.Metrics.to_json base.Postplace.Flow.metrics);
      ("hotspots", j_i (List.length base.Postplace.Flow.hotspots));
      ("points", j_list (List.map Postplace.Experiment.point_to_json points));
      ("checks",
       j_obj
         [ ("eri_above_default", j_b eri_above);
           ("hw_above_default", j_b hw_above);
           ("monotone_in_overhead", j_b monotone) ]) ]

(* --- TABLE I ------------------------------------------------------------ *)

let run_table1 () =
  header "TABLE I -- concentrated hotspot (test set 2)"
    "Table I: Default 16.1%->11.3%, 32.2%->20.2%; ERI (20 rows) \
     16.1%->13.1%, (40 rows) 32.2%->28.6%";
  let fl = Lazy.force flow2 in
  let rows = Postplace.Experiment.run_table1 fl in
  Printf.printf "%-9s %16s %9s %13s %15s\n" "scheme" "area [um x um]" "rows"
    "overhead[%]" "dT reduction[%]";
  List.iter
    (fun (r : Postplace.Experiment.table1_row) ->
       Printf.printf "%-9s %7.0f x %6.0f %9s %13.1f %15.1f\n"
         r.Postplace.Experiment.t1_scheme r.t1_width_um r.t1_height_um
         (match r.t1_rows_inserted with
          | None -> "-"
          | Some k -> string_of_int k)
         r.t1_overhead_pct r.t1_reduction_pct)
    rows;
  j_obj
    [ ("rows",
       j_list
         (List.map
            (fun (r : Postplace.Experiment.table1_row) ->
               j_obj
                 [ ("scheme", j_s r.Postplace.Experiment.t1_scheme);
                   ("width_um", j_f r.t1_width_um);
                   ("height_um", j_f r.t1_height_um);
                   ("rows_inserted",
                    (match r.t1_rows_inserted with
                     | None -> Obs.Json.Null
                     | Some k -> j_i k));
                   ("overhead_pct", j_f r.t1_overhead_pct);
                   ("reduction_pct", j_f r.t1_reduction_pct) ])
            rows)) ]

(* --- TIMING -------------------------------------------------------------- *)

let run_timing () =
  header "TIMING -- critical-path overhead of the techniques"
    "in-text: 'the maximum timing overhead caused by applying the proposed \
     methods is around 2%'";
  let fl = Lazy.force flow1 in
  let rows = Postplace.Experiment.run_timing fl in
  Printf.printf "%-9s %13s %15s %18s\n" "scheme" "overhead[%]"
    "critical [ps]" "timing vs base[%]";
  List.iter
    (fun (r : Postplace.Experiment.timing_summary) ->
       Printf.printf "%-9s %13.1f %15.0f %18.2f\n"
         r.Postplace.Experiment.ts_scheme r.ts_overhead_pct r.ts_critical_ps
         r.ts_overhead_timing_pct)
    rows;
  (* the paper's claim concerns the *techniques*, so HW is measured against
     the Default placement it starts from *)
  let marginal =
    match rows with
    | [ _; default_row; eri_row; hw_row ] ->
      let marginal =
        100.0
        *. (hw_row.Postplace.Experiment.ts_critical_ps
            -. default_row.Postplace.Experiment.ts_critical_ps)
        /. default_row.Postplace.Experiment.ts_critical_ps
      in
      Printf.printf
        "\nERI vs base: %+.2f%%; HW marginal vs its Default start: %+.2f%% \
         (paper: around 2%%)\n"
        eri_row.Postplace.Experiment.ts_overhead_timing_pct marginal;
      Some marginal
    | _ -> None
  in
  j_obj
    [ ("rows",
       j_list
         (List.map
            (fun (r : Postplace.Experiment.timing_summary) ->
               j_obj
                 [ ("scheme", j_s r.Postplace.Experiment.ts_scheme);
                   ("overhead_pct", j_f r.ts_overhead_pct);
                   ("critical_ps", j_f r.ts_critical_ps);
                   ("timing_vs_base_pct", j_f r.ts_overhead_timing_pct) ])
            rows));
      ("hw_marginal_vs_default_pct",
       match marginal with None -> Obs.Json.Null | Some m -> j_f m) ]

(* --- CONGESTION ------------------------------------------------------------ *)

let run_congestion () =
  header "CONGESTION -- ERI by-product in the hotspot region"
    "in-text: ERI 'increases the distance between rows of cells, thus \
     reducing routing congestion in the hotspot regions'";
  let fl = Lazy.force flow1 in
  let rows = Postplace.Experiment.run_congestion fl in
  Printf.printf "%-7s %16s %15s %22s\n" "scheme" "max util [frac]"
    "overflow [um]" "hotspot demand [um]";
  List.iter
    (fun (r : Postplace.Experiment.congestion_summary) ->
       Printf.printf "%-7s %16.3f %15.1f %22.1f\n"
         r.Postplace.Experiment.cs_scheme r.cs_max_utilization
         r.cs_overflow_um r.cs_hotspot_demand_um)
    rows;
  j_obj
    [ ("rows",
       j_list
         (List.map
            (fun (r : Postplace.Experiment.congestion_summary) ->
               j_obj
                 [ ("scheme", j_s r.Postplace.Experiment.cs_scheme);
                   ("max_utilization", j_f r.cs_max_utilization);
                   ("overflow_um", j_f r.cs_overflow_um);
                   ("hotspot_demand_um", j_f r.cs_hotspot_demand_um) ])
            rows)) ]

(* --- ABLATION ----------------------------------------------------------------- *)

let run_ablation () =
  header "ABLATION -- ERI row-placement granularity (test set 2)"
    "design choice behind paper SIII-A: interleaving empty rows vs dropping \
     one block; plus the future-work greedy optimizer";
  let fl = Lazy.force flow2 in
  let rows = Postplace.Experiment.run_ablation fl in
  Printf.printf "%-18s %13s %17s\n" "variant" "overhead[%]"
    "dT reduction[%]";
  List.iter
    (fun (r : Postplace.Experiment.ablation_row) ->
       Printf.printf "%-18s %13.1f %17.2f\n"
         r.Postplace.Experiment.ab_variant r.ab_overhead_pct
         r.ab_reduction_pct)
    rows;
  j_obj
    [ ("rows",
       j_list
         (List.map
            (fun (r : Postplace.Experiment.ablation_row) ->
               j_obj
                 [ ("variant", j_s r.Postplace.Experiment.ab_variant);
                   ("overhead_pct", j_f r.ab_overhead_pct);
                   ("reduction_pct", j_f r.ab_reduction_pct) ])
            rows)) ]

(* --- OPTIMIZER ------------------------------------------------------------------ *)

let run_optimizer () =
  header "OPTIMIZER -- greedy empty-row budget allocation"
    "paper future work: 'transforming them into suitable optimization \
     problems (e.g., the amount of empty rows ... to be inserted)'";
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
         Printf.printf
           "budget %2d rows: heuristic ERI %.2f%% | greedy %.2f%% (%d coarse \
            solves)\n"
           rows (red he) (red oe)
           optimized.Postplace.Optimizer.evaluations;
         j_obj
           [ ("budget_rows", j_i rows);
             ("heuristic_reduction_pct", j_f (red he));
             ("greedy_reduction_pct", j_f (red oe));
             ("coarse_solves", j_i optimized.Postplace.Optimizer.evaluations) ])
      [ 8; 16; 24 ]
  in
  j_obj [ ("budgets", j_list budgets) ]

(* --- ELECTROTHERMAL ------------------------------------------------------------ *)

let run_electrothermal () =
  header "ELECTROTHERMAL -- leakage/temperature feedback"
    "paper SI motivation: 'the positive feedback between leakage power and \
     temperature further exacerbates the thermal problem'";
  let fl = Lazy.force flow2 in
  let rows = Postplace.Experiment.run_electrothermal fl in
  Printf.printf "%-6s %16s %18s %18s %8s\n" "scheme" "open-loop [K]"
    "closed-loop [K]" "leak increase[%]" "iters";
  List.iter
    (fun (r : Postplace.Experiment.electrothermal_row) ->
       Printf.printf "%-6s %16.3f %18.3f %18.2f %8d\n"
         r.Postplace.Experiment.et_scheme r.et_open_loop_peak_k
         r.et_closed_loop_peak_k r.et_leakage_increase_pct r.et_iterations)
    rows;
  (match rows with
   | [ b; e ] ->
     let open_red =
       100.0
       *. (b.Postplace.Experiment.et_open_loop_peak_k
           -. e.Postplace.Experiment.et_open_loop_peak_k)
       /. b.Postplace.Experiment.et_open_loop_peak_k
     in
     let closed_red =
       100.0
       *. (b.Postplace.Experiment.et_closed_loop_peak_k
           -. e.Postplace.Experiment.et_closed_loop_peak_k)
       /. b.Postplace.Experiment.et_closed_loop_peak_k
     in
     Printf.printf
       "\nERI reduction: %.2f%% open loop vs %.2f%% under feedback\n"
       open_red closed_red
   | _ -> ());
  j_obj
    [ ("rows",
       j_list
         (List.map
            (fun (r : Postplace.Experiment.electrothermal_row) ->
               j_obj
                 [ ("scheme", j_s r.Postplace.Experiment.et_scheme);
                   ("open_loop_peak_k", j_f r.et_open_loop_peak_k);
                   ("closed_loop_peak_k", j_f r.et_closed_loop_peak_k);
                   ("leakage_increase_pct", j_f r.et_leakage_increase_pct);
                   ("iterations", j_i r.et_iterations) ])
            rows)) ]

(* --- PACKAGE SWEEP --------------------------------------------------------------- *)

let run_package () =
  header "PACKAGE -- sensitivity to heat-removal capability"
    "paper SII: 'it is possible to have different peak temperature and \
     temperature gradient by using cooling mechanisms with different heat \
     removal capabilities'";
  let fl = Lazy.force flow1 in
  let rows = Postplace.Experiment.run_package_sweep fl in
  Printf.printf "%-18s %12s %14s %20s\n" "sink h [W/m2K]" "peak [K]"
    "gradient [K]" "ERI reduction [%]";
  List.iter
    (fun (r : Postplace.Experiment.package_row) ->
       Printf.printf "%-18.0f %12.3f %14.3f %20.2f\n"
         r.Postplace.Experiment.pk_h_top_w_m2k r.pk_peak_k r.pk_gradient_k
         r.pk_eri_reduction_pct)
    rows;
  j_obj
    [ ("rows",
       j_list
         (List.map
            (fun (r : Postplace.Experiment.package_row) ->
               j_obj
                 [ ("h_top_w_m2k", j_f r.Postplace.Experiment.pk_h_top_w_m2k);
                   ("peak_k", j_f r.pk_peak_k);
                   ("gradient_k", j_f r.pk_gradient_k);
                   ("eri_reduction_pct", j_f r.pk_eri_reduction_pct) ])
            rows)) ]

(* --- BASELINES ----------------------------------------------------------------------- *)

let run_baselines () =
  header "BASELINES -- placement-time vs post-placement thermal awareness"
    "paper SI: thermal-aware floorplanning exists at the architecture level \
     (refs [7][8]); this compares a placement-time power-aware spreader \
     against the paper's post-placement techniques at matched overhead";
  let fl = Lazy.force flow1 in
  let rows = Postplace.Experiment.run_baselines fl in
  Printf.printf "%-20s %13s %15s %12s\n" "scheme" "overhead[%]"
    "reduction[%]" "timing[+%]";
  List.iter
    (fun (r : Postplace.Experiment.baseline_row) ->
       Printf.printf "%-20s %13.1f %15.2f %12.2f\n"
         r.Postplace.Experiment.bl_scheme r.bl_overhead_pct
         r.bl_reduction_pct r.bl_timing_pct)
    rows;
  j_obj
    [ ("rows",
       j_list
         (List.map
            (fun (r : Postplace.Experiment.baseline_row) ->
               j_obj
                 [ ("scheme", j_s r.Postplace.Experiment.bl_scheme);
                   ("overhead_pct", j_f r.bl_overhead_pct);
                   ("reduction_pct", j_f r.bl_reduction_pct);
                   ("timing_pct", j_f r.bl_timing_pct) ])
            rows)) ]

(* --- GLITCH ------------------------------------------------------------------------ *)

let run_glitch () =
  header "GLITCH -- zero-delay vs event-driven activity"
    "fidelity study: the paper annotates activity from VCS (event-driven); \
     our cycle engine misses glitch transitions, quantified here";
  let fl = Lazy.force flow1 in
  let rows = Postplace.Experiment.run_glitch fl in
  Printf.printf "%-28s %14s %14s %8s\n" "metric" "zero-delay" "event-driven"
    "ratio";
  List.iter
    (fun (r : Postplace.Experiment.glitch_row) ->
       Printf.printf "%-28s %14.4f %14.4f %8.2f\n"
         r.Postplace.Experiment.gl_metric r.gl_zero_delay r.gl_event_driven
         (r.gl_event_driven /. r.gl_zero_delay))
    rows;
  j_obj
    [ ("rows",
       j_list
         (List.map
            (fun (r : Postplace.Experiment.glitch_row) ->
               j_obj
                 [ ("metric", j_s r.Postplace.Experiment.gl_metric);
                   ("zero_delay", j_f r.gl_zero_delay);
                   ("event_driven", j_f r.gl_event_driven) ])
            rows)) ]

(* --- GUIDE (gradient vs peak head-to-head) ----------------------------------------- *)

let run_guide () =
  header "GUIDE -- gradient-guided vs peak-guided allocation"
    "n/a (engineering): same row budget, full-mesh committed peaks, with \
     the ERI and HW heuristics as controls";
  let fl = Lazy.force flow1 in
  let rows = Postplace.Experiment.run_guide fl in
  Printf.printf "%-22s %10s %10s %10s %8s %8s\n" "scheme" "peak K"
    "reduce %" "area %" "solves" "adjoints";
  List.iter
    (fun (r : Postplace.Experiment.guide_row) ->
       Printf.printf "%-22s %10.3f %10.2f %10.2f %8d %8d\n"
         r.Postplace.Experiment.gd_scheme r.gd_peak_rise_k r.gd_reduction_pct
         r.gd_area_overhead_pct r.gd_exact_solves r.gd_adjoint_solves)
    rows;
  j_obj
    [ ("rows",
       j_list
         (List.map
            (fun (r : Postplace.Experiment.guide_row) ->
               j_obj
                 [ ("scheme", j_s r.Postplace.Experiment.gd_scheme);
                   ("peak_rise_k", j_f r.gd_peak_rise_k);
                   ("reduction_pct", j_f r.gd_reduction_pct);
                   ("area_overhead_pct", j_f r.gd_area_overhead_pct);
                   ("exact_solves", j_i r.gd_exact_solves);
                   ("adjoint_solves", j_i r.gd_adjoint_solves) ])
            rows)) ]

(* --- TRANSIENT (model validation) ------------------------------------------------- *)

let run_transient () =
  header "TRANSIENT -- validating the steady-state assumption"
    "paper SII: 'the thermal time constant is in the order of tens of \
     milliseconds, much larger than the clock periods in nanoseconds... we \
     can neglect transient currents and solve at the steady state'";
  let fl = Lazy.force flow1 in
  let base = Postplace.Flow.evaluate fl fl.Postplace.Flow.base_placement in
  let cfg =
    { fl.Postplace.Flow.mesh_config with Thermal.Mesh.nx = 16; ny = 16 }
  in
  (* re-bin the power map at the coarse transient resolution *)
  let power =
    Power.Map.power_map base.Postplace.Flow.placement
      ~per_cell_w:fl.Postplace.Flow.per_cell_w ~nx:16 ~ny:16
  in
  let r =
    Thermal.Transient.step_response cfg ~power ~dt_s:2e-5 ~steps:60 ()
  in
  Printf.printf "steady-state peak: %.3f K\n"
    r.Thermal.Transient.steady_peak_k;
  Printf.printf "step-response tau(63%%): %.3e s = %.0f clock cycles at 1 GHz\n"
    r.Thermal.Transient.tau_63_s
    (r.Thermal.Transient.tau_63_s /. 1e-9);
  Printf.printf "selected trajectory points (t [us] -> peak [K]):\n";
  Array.iteri
    (fun k t ->
       if k mod 12 = 0 then
         Printf.printf "  %8.1f -> %.3f\n" (t *. 1e6)
           r.Thermal.Transient.peak_rise_k.(k))
    r.Thermal.Transient.times_s;
  let justified = r.Thermal.Transient.tau_63_s > 1e-6 in
  Printf.printf
    "check: tau >> clock period, steady-state analysis justified: %b\n"
    justified;
  j_obj
    [ ("steady_peak_k", j_f r.Thermal.Transient.steady_peak_k);
      ("tau_63_s", j_f r.Thermal.Transient.tau_63_s);
      ("steady_state_justified", j_b justified) ]

(* --- PERF (bechamel) -------------------------------------------------------------- *)

let run_perf () =
  header "PERF -- kernel micro-benchmarks (bechamel)" "n/a (engineering)";
  let fl = Lazy.force flow1 in
  let base = fl.Postplace.Flow.base_placement in
  let nl = fl.Postplace.Flow.bench.Netgen.Benchmark.netlist in
  let power_map =
    Power.Map.power_map base ~per_cell_w:fl.Postplace.Flow.per_cell_w ~nx:40
      ~ny:40
  in
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
        Test.make ~name:"thermal:mesh-assembly"
          (Staged.stage (fun () ->
               ignore
                 (Thermal.Mesh.build fl.Postplace.Flow.mesh_config
                    ~power:power_map)));
        Test.make ~name:"power:map-binning-12k"
          (Staged.stage (fun () ->
               ignore
                 (Power.Map.power_map base
                    ~per_cell_w:fl.Postplace.Flow.per_cell_w ~nx:40 ~ny:40)));
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
         | Some [ ns ] ->
           Printf.printf "%-32s %12.0f ns/run (%9.3f ms)\n" name ns
             (ns /. 1.0e6);
           Some (name, j_f ns)
         | _ ->
           Printf.printf "%-32s (no estimate)\n" name;
           None)
      (List.sort compare !rows)
  in
  j_obj [ ("ns_per_run", j_obj kernels) ]

(* --- CG ENGINE -------------------------------------------------------------------- *)

(* Wall-clock comparison of the incremental/parallel solve engine against
   the seed behaviour (fresh assembly + cold Jacobi solve everywhere,
   quadratic plan append, sequential candidates). *)

let time f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.now () -. t0)

(* The seed's greedy_rows, reproduced verbatim as a baseline: quadratic
   [plan @ ...] growth, uncached mesh builds, cold solves, one extra final
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
      Thermal.Mesh.solve (Thermal.Mesh.build ~cache:false cfg ~power)
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

(* The cg and mg suites benchmark the *exact* candidate-evaluation path
   (their baselines predate fft screening), so they pin the screening tier
   to exact; the fft suite below measures the screening tier itself. *)
let exact_screen fl =
  { fl with Postplace.Flow.screen = Postplace.Flow.Screen_exact }

let run_cg () =
  header "CG ENGINE -- matrix cache, warm starts, preconditioning, domains"
    "n/a (engineering): incremental + parallel solve engine vs seed \
     behaviour";
  let saved_jobs = Parallel.Pool.jobs () in
  Obs.Metrics.reset ();
  let fl = exact_screen (Lazy.force flow1) in
  let base = fl.Postplace.Flow.base_placement in
  let cfg = fl.Postplace.Flow.mesh_config in
  let power =
    Power.Map.power_map base ~per_cell_w:fl.Postplace.Flow.per_cell_w ~nx:40
      ~ny:40
  in
  (* kernel timings: assembly cold vs cache hit *)
  Thermal.Mesh.cache_clear ();
  let _, t_asm_cold = time (fun () -> Thermal.Mesh.build ~cache:false cfg ~power) in
  let problem, _ = time (fun () -> Thermal.Mesh.build cfg ~power) in
  let cached, t_asm_hit = time (fun () -> Thermal.Mesh.build cfg ~power) in
  let reused =
    Thermal.Mesh.matrix problem == Thermal.Mesh.matrix cached
  in
  Printf.printf "mesh assembly: cold %.2f ms, cache hit %.2f ms (matrix \
                 physically reused: %b)\n"
    (t_asm_cold *. 1e3) (t_asm_hit *. 1e3) reused;
  (* solver variants on the 40x40x9 system *)
  Parallel.Pool.set_jobs 1;
  let cold, t_cold = time (fun () -> Thermal.Mesh.solve problem) in
  let ssor, t_ssor =
    time (fun () -> Thermal.Mesh.solve ~precond:(Thermal.Cg.Ssor 1.2) problem)
  in
  let warm, t_warm =
    time (fun () -> Thermal.Mesh.solve ~x0:cold.Thermal.Mesh.temp problem)
  in
  Printf.printf
    "solve 40x40x9: cold Jacobi %.2f ms (%d it), cold SSOR(1.2) %.2f ms \
     (%d it), warm Jacobi %.2f ms (%d it)\n"
    (t_cold *. 1e3) cold.Thermal.Mesh.cg_iterations
    (t_ssor *. 1e3) ssor.Thermal.Mesh.cg_iterations
    (t_warm *. 1e3) warm.Thermal.Mesh.cg_iterations;
  (* determinism across pool sizes *)
  Parallel.Pool.set_jobs 4;
  let cold4, t_cold4 = time (fun () -> Thermal.Mesh.solve problem) in
  let solve_identical = cold4.Thermal.Mesh.temp = cold.Thermal.Mesh.temp in
  Parallel.Pool.set_jobs 1;
  Printf.printf "solve with 4 domains: %.2f ms, bit-identical to 1 domain: %b\n"
    (t_cold4 *. 1e3) solve_identical;
  (* optimizer scenario: seed behaviour vs the engine, sequential and
     parallel *)
  let rows = 8 and coarse_nx = 40 in
  let (seed_plan, seed_peak), t_seed =
    time (fun () -> seed_greedy fl ~rows ~chunk:4 ~stride:4 ~coarse_nx)
  in
  Thermal.Mesh.cache_clear ();
  let r1, t_eng1 =
    time (fun () -> Postplace.Optimizer.greedy_rows fl ~rows ~coarse_nx ())
  in
  Parallel.Pool.set_jobs 4;
  Thermal.Mesh.cache_clear ();
  let r4, t_eng4 =
    time (fun () -> Postplace.Optimizer.greedy_rows fl ~rows ~coarse_nx ())
  in
  Parallel.Pool.set_jobs saved_jobs;
  let plan_of (r : Postplace.Optimizer.result) =
    r.Postplace.Optimizer.plan.Postplace.Technique.inserted_after
  in
  let parallel_identical =
    plan_of r1 = plan_of r4
    && r1.Postplace.Optimizer.predicted_peak_k
       = r4.Postplace.Optimizer.predicted_peak_k
  in
  let plans_agree = plan_of r1 = seed_plan in
  let speedup = t_seed /. t_eng1 in
  let speedup4 = t_seed /. t_eng4 in
  Printf.printf
    "optimizer (%d rows, %dx%d coarse grid):\n\
    \  seed behaviour        %8.1f ms  (peak %.3f K)\n\
    \  engine, 1 domain      %8.1f ms  (peak %.3f K)  speedup %.2fx\n\
    \  engine, 4 domains     %8.1f ms  (peak %.3f K)  speedup %.2fx\n"
    rows coarse_nx coarse_nx (t_seed *. 1e3) seed_peak (t_eng1 *. 1e3)
    r1.Postplace.Optimizer.predicted_peak_k speedup (t_eng4 *. 1e3)
    r4.Postplace.Optimizer.predicted_peak_k speedup4;
  Printf.printf "check: engine plan matches seed plan:            %b\n"
    plans_agree;
  Printf.printf "check: 4-domain run bit-identical to 1-domain:   %b\n"
    parallel_identical;
  Printf.printf "check: speedup >= 2x:                            %b\n"
    (speedup >= 2.0);
  j_obj
    [ ("kernel",
       j_obj
         [ ("assembly_cold_ms", j_f (t_asm_cold *. 1e3));
           ("assembly_cache_hit_ms", j_f (t_asm_hit *. 1e3));
           ("matrix_reused", j_b reused);
           ("cold_jacobi_ms", j_f (t_cold *. 1e3));
           ("cold_jacobi_iters", j_i cold.Thermal.Mesh.cg_iterations);
           ("cold_ssor_ms", j_f (t_ssor *. 1e3));
           ("cold_ssor_iters", j_i ssor.Thermal.Mesh.cg_iterations);
           ("warm_jacobi_ms", j_f (t_warm *. 1e3));
           ("warm_jacobi_iters", j_i warm.Thermal.Mesh.cg_iterations);
           ("solve_4domains_ms", j_f (t_cold4 *. 1e3));
           ("solve_bit_identical", j_b solve_identical) ]);
      ("optimizer",
       j_obj
         [ ("rows", j_i rows);
           ("coarse_nx", j_i coarse_nx);
           ("seed_ms", j_f (t_seed *. 1e3));
           ("engine_ms", j_f (t_eng1 *. 1e3));
           ("engine_4domains_ms", j_f (t_eng4 *. 1e3));
           ("speedup", j_f speedup);
           ("speedup_4domains", j_f speedup4);
           ("seed_peak_k", j_f seed_peak);
           ("engine_peak_k", j_f r1.Postplace.Optimizer.predicted_peak_k);
           ("plans_agree", j_b plans_agree);
           ("parallel_bit_identical", j_b parallel_identical) ]);
      ("telemetry",
       j_obj
         [ ("cold_iterations",
            hist_percentiles "thermal.cg.cold.iterations");
           ("warm_iterations",
            hist_percentiles "thermal.cg.warm.iterations") ]) ]

(* --- MG ENGINE --------------------------------------------------------------------- *)

(* Geometric-multigrid V-cycle preconditioner vs Jacobi / SSOR CG across
   mesh sizes, plus the two invariants the optimizer relies on when running
   under [Pc_mg]: greedy plans unchanged and bit-identical parallel runs. *)

let run_mg () =
  header "MG ENGINE -- geometric multigrid V-cycle preconditioner"
    "n/a (engineering): multigrid-preconditioned CG vs Jacobi/SSOR-CG \
     across mesh sizes";
  let saved_jobs = Parallel.Pool.jobs () in
  Obs.Metrics.reset ();
  let fl = exact_screen (Lazy.force flow1) in
  let base = fl.Postplace.Flow.base_placement in
  let problem_at nx =
    let cfg =
      { fl.Postplace.Flow.mesh_config with Thermal.Mesh.nx; ny = nx }
    in
    let power =
      Power.Map.power_map base ~per_cell_w:fl.Postplace.Flow.per_cell_w ~nx
        ~ny:nx
    in
    Thermal.Mesh.build cfg ~power
  in
  Parallel.Pool.set_jobs 1;
  let speedup_160 = ref 0.0 in
  let size_rows =
    List.map
      (fun nx ->
         Thermal.Mesh.cache_clear ();
         let problem = problem_at nx in
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
         Printf.printf
           "%3dx%-3d jacobi %8.1f ms (%4d it) | ssor %8.1f ms (%4d it) | \
            mg build %6.1f ms + solve %7.1f ms (%3d it, %d levels) | \
            speedup vs ssor %5.2fx | max-rel-diff %.2e\n"
           nx nx (t_jac *. 1e3) jac.Thermal.Mesh.cg_iterations
           (t_ssor *. 1e3) ssor.Thermal.Mesh.cg_iterations (t_build *. 1e3)
           (t_mg *. 1e3) mg.Thermal.Mesh.cg_iterations
           (Thermal.Multigrid.num_levels hier) speedup !max_rel;
         j_obj
           [ ("nx", j_i nx);
             ("jacobi_ms", j_f (t_jac *. 1e3));
             ("jacobi_iters", j_i jac.Thermal.Mesh.cg_iterations);
             ("ssor_ms", j_f (t_ssor *. 1e3));
             ("ssor_iters", j_i ssor.Thermal.Mesh.cg_iterations);
             ("mg_build_ms", j_f (t_build *. 1e3));
             ("mg_solve_ms", j_f (t_mg *. 1e3));
             ("mg_iters", j_i mg.Thermal.Mesh.cg_iterations);
             ("mg_levels", j_i (Thermal.Multigrid.num_levels hier));
             ("speedup_vs_ssor", j_f speedup);
             ("max_rel_diff_vs_ssor", j_f !max_rel) ])
      [ 40; 80; 160 ]
  in
  (* parallel determinism of the MG-preconditioned solve itself *)
  Thermal.Mesh.cache_clear ();
  let p80 = problem_at 80 in
  let h80 = Thermal.Mesh.multigrid p80 in
  let mg1 =
    Thermal.Mesh.solve ~precond:(Thermal.Cg.Multigrid h80) p80
  in
  Parallel.Pool.set_jobs 4;
  let mg4 =
    Thermal.Mesh.solve ~precond:(Thermal.Cg.Multigrid h80) p80
  in
  let solve_identical = mg1.Thermal.Mesh.temp = mg4.Thermal.Mesh.temp in
  (* optimizer invariants: the greedy plan under the Pc_mg default matches
     the one under SSOR(1.6), the retired ranking default, and Pc_mg runs
     are bit-identical across pool sizes *)
  let rows = 8 in
  let plan_of (r : Postplace.Optimizer.result) =
    r.Postplace.Optimizer.plan.Postplace.Technique.inserted_after
  in
  Parallel.Pool.set_jobs 1;
  Thermal.Mesh.cache_clear ();
  let r_ssor =
    Postplace.Optimizer.greedy_rows
      { fl with
        Postplace.Flow.mesh_precond = Thermal.Mesh.Pc_ssor 1.6 }
      ~rows ()
  in
  Thermal.Mesh.cache_clear ();
  let r_mg1 = Postplace.Optimizer.greedy_rows fl ~rows () in
  Parallel.Pool.set_jobs 4;
  Thermal.Mesh.cache_clear ();
  let r_mg4 = Postplace.Optimizer.greedy_rows fl ~rows () in
  Parallel.Pool.set_jobs saved_jobs;
  let plans_agree = plan_of r_ssor = plan_of r_mg1 in
  let parallel_identical =
    solve_identical
    && plan_of r_mg1 = plan_of r_mg4
    && r_mg1.Postplace.Optimizer.predicted_peak_k
       = r_mg4.Postplace.Optimizer.predicted_peak_k
  in
  Printf.printf "check: greedy plan under Pc_mg matches SSOR(1.6): %b\n"
    plans_agree;
  Printf.printf "check: MG runs bit-identical across pool sizes:   %b\n"
    parallel_identical;
  Printf.printf "check: speedup vs SSOR at 160x160 >= 2x:          %b \
                 (%.2fx)\n"
    (!speedup_160 >= 2.0) !speedup_160;
  j_obj
    [ ("sizes", j_list size_rows);
      ("speedup_vs_ssor_160", j_f !speedup_160);
      ("plans_agree", j_b plans_agree);
      ("parallel_bit_identical", j_b parallel_identical);
      ("telemetry",
       j_obj
         [ ("cold_iterations",
            hist_percentiles "thermal.cg.cold.iterations");
           ("vcycle_count",
            match Obs.Metrics.counter_value "thermal.mg.cycles" with
            | None -> Obs.Json.Null
            | Some n -> j_i n);
           ("vcycles_per_solve",
            hist_percentiles "thermal.mg.solve.cycles") ]) ]

(* --- FFT SCREENING ----------------------------------------------------------------- *)

(* Green's-function power blurring (Kemper et al.) as the O(n log n)
   screening tier: FFT parity against a naive DFT, kernel characterization
   cost, per-candidate blur vs warm MG-CG cost at 160x160, screening rank
   fidelity at the optimizer's grid, and end-to-end greedy_rows under
   Screen_fft vs Screen_exact. *)

let run_fft () =
  header "FFT SCREENING -- Green's-function power blurring tier"
    "n/a (engineering): FFT-blurred candidate ranking + exact leader \
     re-scoring vs all-exact evaluation";
  let saved_jobs = Parallel.Pool.jobs () in
  Obs.Metrics.reset ();
  let fl = exact_screen (Lazy.force flow1) in
  let base = fl.Postplace.Flow.base_placement in
  let num_rows = base.Place.Placement.fp.Place.Floorplan.num_rows in
  Parallel.Pool.set_jobs 1;
  (* FFT parity vs a naive O(n^2) DFT at radix-2 and Bluestein lengths *)
  let naive_dft re im =
    let n = Array.length re in
    let outr = Array.make n 0.0 and outi = Array.make n 0.0 in
    for k = 0 to n - 1 do
      let sr = ref 0.0 and si = ref 0.0 in
      for t = 0 to n - 1 do
        let ang =
          -2.0 *. Float.pi *. float_of_int (k * t) /. float_of_int n
        in
        sr := !sr +. (re.(t) *. cos ang) -. (im.(t) *. sin ang);
        si := !si +. (re.(t) *. sin ang) +. (im.(t) *. cos ang)
      done;
      outr.(k) <- !sr;
      outi.(k) <- !si
    done;
    (outr, outi)
  in
  let parity_err n =
    let st = Random.State.make [| 1997; n |] in
    let re = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
    let im = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
    let dr, di = naive_dft re im in
    let fr = Array.copy re and fi = Array.copy im in
    Thermal.Fft.fft ~re:fr ~im:fi;
    let scale = ref 0.0 and err = ref 0.0 in
    for k = 0 to n - 1 do
      scale := Float.max !scale (Float.hypot dr.(k) di.(k));
      err :=
        Float.max !err (Float.hypot (fr.(k) -. dr.(k)) (fi.(k) -. di.(k)))
    done;
    !err /. !scale
  in
  let parity = List.map (fun n -> (n, parity_err n)) [ 8; 40; 60; 127 ] in
  let parity_max =
    List.fold_left (fun a (_, e) -> Float.max a e) 0.0 parity
  in
  List.iter
    (fun (n, e) -> Printf.printf "fft vs naive dft, n=%-3d: %.2e\n" n e)
    parity;
  Printf.printf "check: fft parity <= 1e-9:                       %b\n"
    (parity_max <= 1e-9);
  (* per-candidate cost at 160x160: one blurred peak vs one warm
     rank-tolerance MG-CG solve -- the two things the optimizer can spend
     on a candidate. Mirrors a greedy round: kernel and hierarchy built on
     the trial extent, solves warm-started from the base incumbent. *)
  let rank_tol = 1e-6 in
  let nx = 160 in
  let cfg160 =
    { fl.Postplace.Flow.mesh_config with Thermal.Mesh.nx; ny = nx }
  in
  let power_of ~nx after =
    let r = Postplace.Technique.apply_row_insertions base after in
    Power.Map.power_map r.Postplace.Technique.eri_placement
      ~per_cell_w:fl.Postplace.Flow.per_cell_w ~nx ~ny:nx
  in
  let chunk_plan cand = List.init 4 (fun _ -> cand) in
  let cands8 = List.init 8 (fun i -> i * max 1 (num_rows / 8)) in
  Thermal.Mesh.cache_clear ();
  let p_base = Thermal.Mesh.build cfg160 ~power:(power_of ~nx []) in
  let h_base = Thermal.Mesh.multigrid p_base in
  let inc =
    Thermal.Mesh.solve ~tol:rank_tol ~precond:(Thermal.Cg.Multigrid h_base)
      p_base
  in
  let p_first =
    Thermal.Mesh.build cfg160
      ~power:(power_of ~nx (chunk_plan (List.hd cands8)))
  in
  let hier, t_mg_build = time (fun () -> Thermal.Mesh.multigrid p_first) in
  let kernel, t_char = time (fun () -> Thermal.Mesh.blur p_first) in
  let sum_ex = ref 0.0 and sum_bl = ref 0.0 and err160 = ref 0.0 in
  List.iter
    (fun cand ->
       let power = power_of ~nx (chunk_plan cand) in
       let problem = Thermal.Mesh.build cfg160 ~power in
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
       err160 := Float.max !err160 (Float.abs (bl -. ex) /. ex);
       sum_ex := !sum_ex +. t_ex;
       sum_bl := !sum_bl +. t_bl)
    cands8;
  let n8 = float_of_int (List.length cands8) in
  let exact_eval_ms = !sum_ex /. n8 *. 1e3 in
  let blur_eval_ms = !sum_bl /. n8 *. 1e3 in
  let per_cand_speedup = exact_eval_ms /. blur_eval_ms in
  Printf.printf
    "kernel at %dx%d: mg build %.1f ms, characterize %.1f ms\n\
     per-candidate: exact %.2f ms, blur %.2f ms, speedup %.1fx, max peak \
     rel err %.2e\n"
    nx nx (t_mg_build *. 1e3) (t_char *. 1e3) exact_eval_ms blur_eval_ms
    per_cand_speedup !err160;
  Printf.printf "check: per-candidate speedup >= 5x:              %b\n"
    (per_cand_speedup >= 5.0);
  (* screening rank fidelity: does the blurred ordering keep the exact
     winner inside the leader set the optimizer re-scores? *)
  let rank_nx = 40 in
  let cfg40 =
    { fl.Postplace.Flow.mesh_config with Thermal.Mesh.nx = rank_nx;
      ny = rank_nx }
  in
  Thermal.Mesh.cache_clear ();
  let p40 = Thermal.Mesh.build cfg40 ~power:(power_of ~nx:rank_nx []) in
  let h40b = Thermal.Mesh.multigrid p40 in
  let inc40 =
    Thermal.Mesh.solve ~tol:rank_tol ~precond:(Thermal.Cg.Multigrid h40b)
      p40
  in
  let cands40 =
    let rec collect r acc =
      if r >= num_rows then List.rev acc else collect (r + 4) (r :: acc)
    in
    collect 0 []
  in
  let first40 =
    Thermal.Mesh.build cfg40
      ~power:(power_of ~nx:rank_nx (chunk_plan (List.hd cands40)))
  in
  let h40 = Thermal.Mesh.multigrid first40 in
  let k40 = Thermal.Mesh.blur first40 in
  let scored =
    List.map
      (fun cand ->
         let power = power_of ~nx:rank_nx (chunk_plan cand) in
         let problem = Thermal.Mesh.build cfg40 ~power in
         let sol =
           Thermal.Mesh.solve ~tol:rank_tol
             ~precond:(Thermal.Cg.Multigrid h40)
             ~x0:inc40.Thermal.Mesh.temp problem
         in
         let ex =
           (Thermal.Metrics.of_map (Thermal.Mesh.active_layer_grid sol))
             .Thermal.Metrics.peak_rise_k
         in
         (ex, Thermal.Blur.peak k40 ~power))
      cands40
  in
  (* rank.(i) = position of candidate i sorted ascending, ties by index *)
  let rank_positions scores =
    let sorted = List.sort compare (List.mapi (fun i s -> (s, i)) scores) in
    let pos = Array.make (List.length scores) 0 in
    List.iteri (fun r (_, i) -> pos.(i) <- r) sorted;
    pos
  in
  let ex_rank = rank_positions (List.map fst scored) in
  let bl_rank = rank_positions (List.map snd scored) in
  let max_disp = ref 0 and winner_blur_rank = ref 0 and err40 = ref 0.0 in
  Array.iteri
    (fun i r ->
       max_disp := max !max_disp (abs (r - bl_rank.(i)));
       if r = 0 then winner_blur_rank := bl_rank.(i))
    ex_rank;
  List.iter
    (fun (ex, bl) -> err40 := Float.max !err40 (Float.abs (bl -. ex) /. ex))
    scored;
  let leaders = 3 in
  Printf.printf
    "screening at %dx%d over %d candidates: exact winner at blur rank %d, \
     max rank displacement %d, max peak rel err %.2e\n"
    rank_nx rank_nx (List.length cands40) !winner_blur_rank !max_disp
    !err40;
  Printf.printf "check: exact winner within %d leaders:            %b\n"
    leaders (!winner_blur_rank < leaders);
  (* end-to-end: greedy_rows with fft screening vs the exact tier, cold
     (empty mesh cache) and warm (matrices, hierarchies and blur kernels
     already cached) *)
  let rows = 8 and chunk = 4 in
  let stride = max 1 (num_rows / 20) in
  let coarse_nx = 160 in
  let fl_fft = { fl with Postplace.Flow.screen = Postplace.Flow.Screen_fft } in
  let run f =
    Postplace.Optimizer.greedy_rows f ~rows ~chunk ~stride ~coarse_nx ()
  in
  Thermal.Mesh.cache_clear ();
  let r_ex_cold, t_ex_cold = time (fun () -> run fl) in
  let r_ex_warm, t_ex_warm = time (fun () -> run fl) in
  Thermal.Mesh.cache_clear ();
  let r_ff_cold, t_ff_cold = time (fun () -> run fl_fft) in
  let r_ff_warm, t_ff_warm = time (fun () -> run fl_fft) in
  Parallel.Pool.set_jobs saved_jobs;
  let plan_of (r : Postplace.Optimizer.result) =
    r.Postplace.Optimizer.plan.Postplace.Technique.inserted_after
  in
  let plans_agree =
    plan_of r_ff_cold = plan_of r_ex_cold
    && plan_of r_ff_warm = plan_of r_ex_warm
  in
  let peaks_identical =
    r_ff_warm.Postplace.Optimizer.predicted_peak_k
    = r_ex_warm.Postplace.Optimizer.predicted_peak_k
  in
  let speedup_cold = t_ex_cold /. t_ff_cold in
  let speedup_warm = t_ex_warm /. t_ff_warm in
  Printf.printf
    "optimizer (%d rows, stride %d, %dx%d grid):\n\
    \  exact tier  cold %8.1f ms   warm %8.1f ms  (%d solves)\n\
    \  fft tier    cold %8.1f ms   warm %8.1f ms  (%d solves + %d blurs)\n\
    \  speedup     cold %.2fx  warm %.2fx\n"
    rows stride coarse_nx coarse_nx (t_ex_cold *. 1e3) (t_ex_warm *. 1e3)
    r_ex_warm.Postplace.Optimizer.evaluations (t_ff_cold *. 1e3)
    (t_ff_warm *. 1e3) r_ff_warm.Postplace.Optimizer.evaluations
    r_ff_warm.Postplace.Optimizer.blur_evaluations speedup_cold
    speedup_warm;
  Printf.printf "check: fft and exact tiers pick the same plan:   %b\n"
    plans_agree;
  Printf.printf "check: end-to-end speedup (warm) >= 2x:          %b\n"
    (speedup_warm >= 2.0);
  let counter name =
    match Obs.Metrics.counter_value name with
    | None -> Obs.Json.Null
    | Some n -> j_i n
  in
  j_obj
    [ ("fft_parity",
       j_obj
         [ ("sizes", j_list (List.map (fun (n, _) -> j_i n) parity));
           ("max_rel_err", j_f parity_max);
           ("within_1e9", j_b (parity_max <= 1e-9)) ]);
      ("kernel",
       j_obj
         [ ("nx", j_i nx);
           ("mg_build_ms", j_f (t_mg_build *. 1e3));
           ("characterize_ms", j_f (t_char *. 1e3));
           ("exact_eval_ms", j_f exact_eval_ms);
           ("blur_eval_ms", j_f blur_eval_ms);
           ("per_candidate_speedup", j_f per_cand_speedup);
           ("max_peak_rel_err", j_f !err160) ]);
      ("screening",
       j_obj
         [ ("nx", j_i rank_nx);
           ("candidates", j_i (List.length cands40));
           ("leaders", j_i leaders);
           ("winner_blur_rank", j_i !winner_blur_rank);
           ("max_rank_displacement", j_i !max_disp);
           ("max_peak_rel_err", j_f !err40);
           ("winner_within_leaders", j_b (!winner_blur_rank < leaders)) ]);
      ("optimizer",
       j_obj
         [ ("rows", j_i rows);
           ("stride", j_i stride);
           ("coarse_nx", j_i coarse_nx);
           ("exact_cold_ms", j_f (t_ex_cold *. 1e3));
           ("exact_warm_ms", j_f (t_ex_warm *. 1e3));
           ("fft_cold_ms", j_f (t_ff_cold *. 1e3));
           ("fft_warm_ms", j_f (t_ff_warm *. 1e3));
           ("speedup_cold", j_f speedup_cold);
           ("speedup_warm", j_f speedup_warm);
           ("exact_evaluations", j_i r_ex_warm.Postplace.Optimizer.evaluations);
           ("fft_evaluations", j_i r_ff_warm.Postplace.Optimizer.evaluations);
           ("fft_blur_evaluations",
            j_i r_ff_warm.Postplace.Optimizer.blur_evaluations);
           ("exact_peak_k",
            j_f r_ex_warm.Postplace.Optimizer.predicted_peak_k);
           ("fft_peak_k", j_f r_ff_warm.Postplace.Optimizer.predicted_peak_k);
           ("plans_agree", j_b plans_agree);
           ("peaks_identical", j_b peaks_identical) ]);
      ("telemetry",
       j_obj
         [ ("fft_radix2", counter "thermal.fft.radix2");
           ("fft_bluestein", counter "thermal.fft.bluestein");
           ("blur_kernels", counter "thermal.blur.kernels");
           ("blur_evals", counter "thermal.blur.evals");
           ("cache_evictions", counter "thermal.mesh.cache.evictions") ]) ]

(* --- ADJOINT SENSITIVITY ------------------------------------------------------------ *)

(* The gradient guide's economics: one adjoint solve prices every
   candidate at once, where the greedy peak guide pays a rank-tolerance
   solve per chunk. Validates the adjoint against a superposition
   central difference, times adjoint vs forward cost, then runs the
   optimizer head-to-head at the production 160x160 grid. *)

let run_adjoint () =
  header "ADJOINT SENSITIVITY -- gradient-guided whitespace allocation"
    "n/a (engineering): adjoint-priced candidate ranking vs per-chunk \
     exact evaluation";
  let saved_jobs = Parallel.Pool.jobs () in
  Obs.Metrics.reset ();
  let fl = exact_screen (Lazy.force flow1) in
  let base = fl.Postplace.Flow.base_placement in
  let num_rows = base.Place.Placement.fp.Place.Floorplan.num_rows in
  Parallel.Pool.set_jobs 1;
  (* forward vs adjoint cost and a finite-difference spot check at 40x40 *)
  let nx = 40 in
  let cfg40 =
    { fl.Postplace.Flow.mesh_config with Thermal.Mesh.nx; ny = nx }
  in
  let power40 =
    Power.Map.power_map base ~per_cell_w:fl.Postplace.Flow.per_cell_w ~nx
      ~ny:nx
  in
  Thermal.Mesh.cache_clear ();
  let problem = Thermal.Mesh.build cfg40 ~power:power40 in
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
  let adjoint_vs_forward = t_adj /. t_fwd in
  Printf.printf
    "at %dx%d: forward %.1f ms (%d iters), adjoint %.1f ms (%d iters), \
     ratio %.2fx\n\
     fd spot check at argmax tile: rel err %.2e\n"
    nx nx (t_fwd *. 1e3) fwd.Thermal.Mesh.cg_iterations (t_adj *. 1e3)
    adj.Thermal.Adjoint.cg_iterations adjoint_vs_forward fd_rel;
  Printf.printf "check: adjoint matches fd to 1e-6:               %b\n"
    (fd_rel <= 1e-6);
  (* head-to-head at the production grid: exact greedy (peak guide, exact
     screen) vs the gradient guide, cold and warm *)
  let rows = 8 and chunk = 4 in
  let stride = max 1 (num_rows / 20) in
  let coarse_nx = 160 in
  let fl_grad =
    { fl with Postplace.Flow.guide = Postplace.Flow.Guide_gradient }
  in
  let run f =
    Postplace.Optimizer.greedy_rows f ~rows ~chunk ~stride ~coarse_nx ()
  in
  Thermal.Mesh.cache_clear ();
  let r_gr_cold, t_gr_cold = time (fun () -> run fl) in
  let r_gr_warm, t_gr_warm = time (fun () -> run fl) in
  Thermal.Mesh.cache_clear ();
  let r_ad_cold, t_ad_cold = time (fun () -> run fl_grad) in
  let r_ad_warm, t_ad_warm = time (fun () -> run fl_grad) in
  Parallel.Pool.set_jobs saved_jobs;
  let greedy_evals = r_gr_warm.Postplace.Optimizer.evaluations in
  let grad_evals = r_ad_warm.Postplace.Optimizer.evaluations in
  let grad_adjoints = r_ad_warm.Postplace.Optimizer.adjoint_evaluations in
  let grad_total = grad_evals + grad_adjoints in
  let solve_ratio = float_of_int greedy_evals /. float_of_int grad_total in
  let solve_ratio_ge_3x = greedy_evals >= 3 * grad_total in
  let peak_gr = r_gr_warm.Postplace.Optimizer.predicted_peak_k in
  let peak_ad = r_ad_warm.Postplace.Optimizer.predicted_peak_k in
  let peak_delta = peak_ad -. peak_gr in
  let peak_within_tol = peak_delta <= 0.05 in
  let speedup_cold = t_gr_cold /. t_ad_cold in
  let speedup_warm = t_gr_warm /. t_ad_warm in
  Printf.printf
    "optimizer (%d rows, stride %d, %dx%d grid):\n\
    \  greedy (peak guide)  cold %8.1f ms   warm %8.1f ms  (%d solves)\n\
    \  gradient guide       cold %8.1f ms   warm %8.1f ms  (%d solves + %d \
     adjoints)\n\
    \  speedup              cold %.2fx  warm %.2fx   solve ratio %.1fx\n\
    \  peak: greedy %.4f K, gradient %.4f K (delta %+.4f K)\n"
    rows stride coarse_nx coarse_nx (t_gr_cold *. 1e3) (t_gr_warm *. 1e3)
    greedy_evals (t_ad_cold *. 1e3) (t_ad_warm *. 1e3) grad_evals
    grad_adjoints speedup_cold speedup_warm solve_ratio peak_gr peak_ad
    peak_delta;
  Printf.printf "check: >= 3x fewer exact solves:                 %b\n"
    solve_ratio_ge_3x;
  Printf.printf "check: gradient peak within +0.05 K of greedy:   %b\n"
    peak_within_tol;
  let counter name =
    match Obs.Metrics.counter_value name with
    | None -> Obs.Json.Null
    | Some n -> j_i n
  in
  ignore r_gr_cold;
  ignore r_ad_cold;
  j_obj
    [ ("adjoint_solve",
       j_obj
         [ ("nx", j_i nx);
           ("forward_ms", j_f (t_fwd *. 1e3));
           ("adjoint_ms", j_f (t_adj *. 1e3));
           ("adjoint_vs_forward", j_f adjoint_vs_forward);
           ("forward_iterations", j_i fwd.Thermal.Mesh.cg_iterations);
           ("adjoint_iterations", j_i adj.Thermal.Adjoint.cg_iterations);
           ("fd_rel_err", j_f fd_rel);
           ("fd_within_1e6", j_b (fd_rel <= 1e-6)) ]);
      ("optimizer",
       j_obj
         [ ("rows", j_i rows);
           ("stride", j_i stride);
           ("coarse_nx", j_i coarse_nx);
           ("greedy_cold_ms", j_f (t_gr_cold *. 1e3));
           ("greedy_warm_ms", j_f (t_gr_warm *. 1e3));
           ("gradient_cold_ms", j_f (t_ad_cold *. 1e3));
           ("gradient_warm_ms", j_f (t_ad_warm *. 1e3));
           ("speedup_cold", j_f speedup_cold);
           ("speedup_warm", j_f speedup_warm);
           ("greedy_evaluations", j_i greedy_evals);
           ("gradient_evaluations", j_i grad_evals);
           ("gradient_adjoint_evaluations", j_i grad_adjoints);
           ("solve_ratio", j_f solve_ratio);
           ("solve_ratio_ge_3x", j_b solve_ratio_ge_3x);
           ("greedy_peak_k", j_f peak_gr);
           ("gradient_peak_k", j_f peak_ad);
           ("peak_delta_k", j_f peak_delta);
           ("peak_within_tol", j_b peak_within_tol) ]);
      ("telemetry",
       j_obj
         [ ("adjoint_solves", counter "thermal.adjoint.solves");
           ("adjoint_iterations", counter "thermal.adjoint.iterations");
           ("optimizer_adjoint_solves", counter "optimizer.adjoint_solves");
           ("cache_evictions", counter "thermal.mesh.cache.evictions") ]) ]

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
  header "BATCH SERVE -- same-fingerprint batching, fault isolation, retry"
    "n/a (engineering): thermoplace serve vs one process per job";
  let n_jobs = 6 in
  let job ?(extra = "") id =
    Printf.sprintf
      {|{"id":"%s","test_set":"small","technique":"eri","cycles":600%s}|} id
      extra
  in
  let clean_lines = List.init n_jobs (fun i -> job (Printf.sprintf "j%d" i)) in
  let serve_config =
    { Serve.Server.default_config with
      Serve.Server.ledger = None;
      handle_sigterm = false }
  in
  (* One in-process server round trip over [lines]: write the request
     file, serve it to EOF, read the response lines back. *)
  let run_server lines =
    let in_path = Filename.temp_file "bench_serve_in" ".jsonl" in
    let out_path = Filename.temp_file "bench_serve_out" ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove in_path;
        Sys.remove out_path)
      (fun () ->
        let oc = open_out in_path in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        close_out oc;
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
        let ic = open_in out_path in
        let responses = ref [] in
        (try
           while true do
             responses := input_line ic :: !responses
           done
         with End_of_file -> ());
        close_in ic;
        (summary, List.rev !responses))
  in
  let parse_responses lines =
    List.filter_map
      (fun l ->
        match Obs.Json.of_string l with
        | Ok json ->
          Option.bind (Obs.Json.member "id" json) Obs.Json.to_string_opt
          |> Option.map (fun id -> (id, json))
        | Error _ -> None)
      lines
  in
  let field resp id name =
    Option.bind (List.assoc_opt id resp) (Obs.Json.member name)
  in
  let outcome resp id =
    match Option.bind (field resp id "outcome") Obs.Json.to_string_opt with
    | Some o -> o
    | None -> "missing"
  in
  (* Warm the global mesh/blur caches once so the timed batched run
     measures steady-state serving, then time it against the per-job
     baseline where every job pays a cold prepare (one process per job
     shares nothing, hence the cache_clear between jobs). *)
  Thermal.Mesh.cache_clear ();
  ignore (run_server clean_lines);
  let (batched_summary, batched_raw), t_batched =
    time (fun () -> run_server clean_lines)
  in
  let (_ : (Serve.Server.summary * string list) list), t_per_job =
    time (fun () ->
        List.map
          (fun l ->
            Thermal.Mesh.cache_clear ();
            run_server [ l ])
          clean_lines)
  in
  let batched = parse_responses batched_raw in
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
  let _, poisoned_raw = run_server poisoned_lines in
  let with_fault = parse_responses poisoned_raw in
  let result_str resp id =
    match field resp id "result" with
    | Some j -> Obs.Json.to_string j
    | None -> "missing:" ^ id
  in
  let mates_identical =
    List.for_all
      (fun (id, _) -> result_str batched id = result_str with_fault id)
      batched
  in
  let fault_exit =
    match Option.bind (field with_fault "poisoned" "exit_code") Obs.Json.to_int with
    | Some c -> c
    | None -> -1
  in
  let fault_isolated =
    mates_identical
    && outcome with_fault "poisoned" = "failed"
    && fault_exit = 11
  in
  (* Retry: a transient cg_stall:8 under the default policy (2 retries)
     recovers on the clean second attempt; with retries disabled the
     same job fails with the solver-divergence exit. *)
  let _, retry_raw =
    run_server
      [ job ~extra:{|,"faults":"cg_stall:8","max_retries":2|} "transient";
        job ~extra:{|,"faults":"cg_stall:8","max_retries":0|} "hopeless" ]
  in
  let retry = parse_responses retry_raw in
  let attempts id =
    match Option.bind (field retry id "attempts") Obs.Json.to_int with
    | Some n -> n
    | None -> -1
  in
  let retry_recovers =
    outcome retry "transient" = "ok" && attempts "transient" = 2
  in
  let no_retry_fails =
    outcome retry "hopeless" = "failed" && attempts "hopeless" = 1
  in
  Printf.printf
    "serve (%d same-fingerprint jobs, eri on small):\n\
    \  batched     %8.1f ms  (%d batch%s)\n\
    \  per-job     %8.1f ms  (cold prepare per job)\n\
    \  speedup     %.2fx\n"
    n_jobs (t_batched *. 1e3) batched_summary.Serve.Server.batches
    (if single_batch then "" else "es")
    (t_per_job *. 1e3) speedup;
  Printf.printf "check: all %d batched jobs succeed:              %b\n" n_jobs
    all_ok;
  Printf.printf "check: batching speedup >= 1.5x:                 %b\n"
    (speedup >= 1.5);
  Printf.printf "check: mates bit-identical around a fault:       %b\n"
    mates_identical;
  Printf.printf "check: poisoned job fails structured (exit 11):  %b\n"
    (fault_exit = 11);
  Printf.printf "check: transient fault recovered by retry:       %b\n"
    retry_recovers;
  Printf.printf "check: retry disabled -> structured failure:     %b\n"
    no_retry_fails;
  j_obj
    [ ("batching",
       j_obj
         [ ("jobs", j_i n_jobs);
           ("batches", j_i batched_summary.Serve.Server.batches);
           ("batched_ms", j_f (t_batched *. 1e3));
           ("per_job_ms", j_f (t_per_job *. 1e3));
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

(* --- dispatch ---------------------------------------------------------------------- *)

let experiments =
  [ ("fig5", run_fig5); ("fig6", run_fig6); ("table1", run_table1);
    ("timing", run_timing); ("congestion", run_congestion);
    ("ablation", run_ablation); ("optimizer", run_optimizer);
    ("electrothermal", run_electrothermal); ("package", run_package);
    ("baselines", run_baselines); ("glitch", run_glitch);
    ("guide", run_guide); ("transient", run_transient) ]

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

(* Runs an experiment --trials times and writes the (merged) summary to
   BENCH_<name>.json alongside the text table, so downstream tooling can
   diff runs without scraping stdout; appends one ledger record per
   suite so the perf trajectory accumulates across invocations. *)
let run_and_emit (name, f) =
  let t0 = Obs.Clock.now () in
  let summaries = List.init !trials (fun _ -> f ()) in
  let elapsed_ms = (Obs.Clock.now () -. t0) *. 1e3 in
  let summary =
    match summaries with
    | [ one ] -> one
    | many -> merge_trials "summary" many
  in
  let path = Printf.sprintf "BENCH_%s.json" name in
  let json =
    Obs.Json.Obj
      [ ("experiment", j_s name); ("trials", j_i !trials);
        ("summary", summary) ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "[wrote %s]\n" path;
  Obs.Ledger.append_or_warn ~prog:"bench" (Obs.Ledger.resolve_path ())
    (Obs.Ledger.make_record
       ~command:("bench:" ^ name)
       ~fingerprint:
         (Printf.sprintf "bench=%s|trials=%d|jobs=%d" name !trials
            (Parallel.Pool.jobs ()))
       ~config:
         [ ("experiment", j_s name); ("trials", j_i !trials);
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
  | [] | [ "all" ] -> List.iter run_and_emit experiments
  | [ "perf" ] -> run_and_emit ("perf", run_perf)
  | [ "cg" ] -> run_and_emit ("cg", run_cg)
  | [ "mg" ] -> run_and_emit ("mg", run_mg)
  | [ "fft" ] -> run_and_emit ("fft", run_fft)
  | [ "adjoint" ] -> run_and_emit ("adjoint", run_adjoint)
  | [ "serve" ] -> run_and_emit ("serve", run_serve)
  | [ name ] when List.mem_assoc name experiments ->
    run_and_emit (name, List.assoc name experiments)
  | other ->
    Printf.eprintf
      "unknown experiment %s; expected one of all, perf, cg, mg, fft, \
       adjoint, serve, %s\n"
      (String.concat " " other)
      (String.concat ", " (List.map fst experiments));
    exit 2
