(* thermoplace: command-line driver for the post-placement temperature
   reduction flow.

     thermoplace flow     -- run the full flow and one technique
     thermoplace report   -- netlist / placement / power / thermal summary
     thermoplace maps     -- dump power and thermal maps (matrix or ascii)
     thermoplace sweep    -- Default/ERI/HW reduction-vs-overhead sweep
     thermoplace optimize -- greedy row-budget optimizer (parallel evals)
     thermoplace check    -- run the design invariant suite
     thermoplace export   -- Verilog / LEF / DEF / SPICE / SVG dump
     thermoplace serve    -- batch JSONL job server (queue, deadlines, retry)

     thermoplace history  -- list / show / diff / trend over the run ledger

   Every subcommand accepts --trace (span tree to stderr), --report FILE
   (machine-readable JSON run report), --perfetto FILE (Chrome
   trace-event JSON of the merged cross-domain span forest, loadable in
   Perfetto / chrome://tracing) and --prom FILE (Prometheus text
   exposition of the metrics registry). Every run also appends one
   record to the JSONL run ledger (config fingerprint, per-phase
   timings, CG iteration totals, peak temperature, plan hash, metrics
   summary, outcome) — --ledger FILE / THERMOPLACE_LEDGER override the
   path, "none" disables.

   Structured failures (Robust.Error) exit with stable per-class codes:
   solver divergence 10, invariant violation 11, worker failure 12,
   corrupt checkpoint 13, queue full 14, deadline exceeded 15 (the last
   two appear per job in serve responses, not as process exits).
   THERMOPLACE_FAULTS arms fault injection. *)

open Cmdliner
module Flow = Postplace.Flow
module Job = Serve.Job
module Json = Obs.Json

(* --- run ledger context ---------------------------------------------------

   Process-global because a thermoplace invocation is exactly one run:
   the subcommand fills it in as the run unfolds (fingerprint, phases as
   they complete, peak/plan hash once known) and the structured-error
   boundary flushes one ledger record on every exit path — success,
   invariant failure, or solver breakdown. Phases are timed on the
   monotonic Obs.Clock. *)

module Run = struct
  let command = ref ""
  let ledger_path : string option ref = ref None
  let fingerprint = ref ""
  let config : (string * Json.t) list ref = ref []
  let phases : (string * float) list ref = ref []
  let peak_rise_k : float option ref = ref None
  let plan_hash : string option ref = ref None
  let t0 = ref 0.0
  let recorded = ref false

  let begin_ ~command:c ~ledger ~config:cfg =
    command := c;
    ledger_path := Obs.Ledger.resolve_path ?path:ledger ();
    fingerprint := "";
    config := cfg;
    phases := [];
    peak_rise_k := None;
    plan_hash := None;
    t0 := Obs.Clock.now ();
    recorded := false

  let phase name f =
    let s = Obs.Clock.now () in
    let r = f () in
    phases := !phases @ [ (name ^ "_ms", (Obs.Clock.now () -. s) *. 1e3) ];
    r

  let set_peak k = peak_rise_k := Some k

  let record ?error ~outcome ~exit_code () =
    if not !recorded then begin
      recorded := true;
      let cg_iterations =
        Option.map
          (fun h -> int_of_float h.Obs.Metrics.sum)
          (Obs.Metrics.histogram "thermal.cg.iterations")
      in
      let phases_ms =
        !phases @ [ ("total_ms", (Obs.Clock.now () -. !t0) *. 1e3) ]
      in
      Obs.Ledger.append_or_warn ~prog:"thermoplace" !ledger_path
        (Obs.Ledger.make_record ~command:!command ~fingerprint:!fingerprint
           ~config:!config ~phases_ms ?cg_iterations
           ?peak_rise_k:!peak_rise_k ?plan_hash:!plan_hash
           ~metrics:(Obs.Metrics.summary_json ()) ?error ~outcome ~exit_code
           ())
    end
end

(* Catch structured errors at the subcommand boundary and turn them into
   a one-line stderr message plus the class's stable exit code; flush
   the ledger record on both paths. *)
let with_structured_errors run =
  match run () with
  | status ->
    Run.record ~outcome:(if status = 0 then "ok" else "error")
      ~exit_code:status ();
    status
  | exception Robust.Error.Error e ->
    Printf.eprintf "thermoplace: %s\n" (Robust.Error.to_string e);
    let code = Robust.Error.exit_code e in
    Run.record ~error:(Robust.Error.to_string e) ~outcome:"error"
      ~exit_code:code ();
    code

(* --- validated option converters ----------------------------------------- *)

(* Range errors surface as Cmdliner parse errors (usage + message) instead
   of a downstream Invalid_argument from the flow internals. *)

let bad fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt

let int_min ~min name =
  let parse s =
    match int_of_string_opt s with
    | None -> bad "%s: expected an integer, got %S" name s
    | Some v when v < min -> bad "%s must be >= %d (got %d)" name min v
    | Some v -> Ok v
  in
  Arg.conv (parse, Format.pp_print_int)

let float_range ?(min_exclusive = Float.neg_infinity)
    ?(max_inclusive = Float.infinity) ~min name =
  let parse s =
    match float_of_string_opt s with
    | None -> bad "%s: expected a number, got %S" name s
    | Some v when Float.is_nan v -> bad "%s: nan is not a valid value" name
    | Some v when v < min -> bad "%s must be >= %g (got %g)" name min v
    | Some v when v <= min_exclusive ->
      bad "%s must be > %g (got %g)" name min_exclusive v
    | Some v when v > max_inclusive ->
      bad "%s must be <= %g (got %g)" name max_inclusive v
    | Some v -> Ok v
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)

let names table = Arg.enum (List.map (fun n -> (n, n)) table)

(* --- shared options ------------------------------------------------------ *)

let seed =
  let doc = "Random seed for vectors and placement." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let cycles =
  let doc = "Measured simulation cycles for switching activity (>= 1)." in
  Arg.(value & opt (int_min ~min:1 "--cycles") 1000
       & info [ "cycles" ] ~docv:"N" ~doc)

let utilization =
  let doc = "Base placement row-utilization factor, in (0, 1]." in
  Arg.(value
       & opt (float_range ~min:0.0 ~min_exclusive:0.0 ~max_inclusive:1.0
                "--utilization")
           0.85
       & info [ "utilization"; "u" ] ~docv:"U" ~doc)

let test_set =
  let doc =
    "Benchmark workload: $(b,scattered) (test set 1, four scattered \
     hotspots), $(b,concentrated) (test set 2, one large hotspot), or \
     $(b,small) (tiny 3-unit smoke benchmark)."
  in
  Arg.(value & opt (names Postplace.Experiment.test_set_names) "scattered"
       & info [ "test-set"; "t" ] ~docv:"SET" ~doc)

let guide_arg =
  let doc =
    "Optimizer candidate-ranking signal: $(b,peak) (price each \
     candidate's predicted peak temperature — the paper's scheme — by \
     the exact modal power blur, then re-score the committed plan with \
     one solve) or $(b,gradient) (one adjoint sensitivity solve per \
     round prices every candidate from the dT_peak/d(power) map; a seed \
     solve and one confirmation solve per round, the last of which \
     scores the plan: rounds + 1 solves plus one adjoint per round)."
  in
  Arg.(value & opt (names Flow.guide_names) "peak"
       & info [ "guide" ] ~docv:"G" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel candidate evaluation and sweep points \
     (>= 1; 1 disables parallelism). Results are bit-identical for any \
     value."
  in
  Arg.(value & opt (int_min ~min:1 "--jobs") (Parallel.Pool.default_jobs ())
       & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let trace_arg =
  let doc = "Print the wall-clock span tree of the run to stderr." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let report_arg =
  let doc =
    "Write a machine-readable JSON run report (config, span tree, metrics, \
     warnings, results) to $(docv)."
  in
  Arg.(value & opt (some string) None
       & info [ "report" ] ~docv:"FILE" ~doc)

let perfetto_arg =
  let doc =
    "Write the run's span forest as Chrome trace-event JSON to $(docv). \
     Spans from every domain appear as separate tracks (tid = domain id); \
     open the file in ui.perfetto.dev or chrome://tracing. Implies span \
     recording, like $(b,--trace)."
  in
  Arg.(value & opt (some string) None
       & info [ "perfetto" ] ~docv:"FILE" ~doc)

let prom_arg =
  let doc =
    "Write the final metrics registry in Prometheus text exposition \
     format to $(docv): labelled counters and gauges directly, histogram \
     aggregates as companion gauges plus p50/p90/p99 quantile series."
  in
  Arg.(value & opt (some string) None & info [ "prom" ] ~docv:"FILE" ~doc)

let ledger_arg =
  let doc =
    "Append this run's record to the JSONL ledger at $(docv) instead of \
     the default (thermoplace.ledger.jsonl, or the THERMOPLACE_LEDGER \
     environment variable). $(b,none) disables the ledger."
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

type obs = {
  trace : bool; report : string option; perfetto : string option;
  prom : string option; ledger : string option;
}

let obs_t =
  let make trace report perfetto prom ledger =
    { trace; report; perfetto; prom; ledger }
  in
  Term.(const make $ trace_arg $ report_arg $ perfetto_arg $ prom_arg
        $ ledger_arg)

(* The options every flow subcommand shares: the problem a serve request
   would name, plus the observability outputs. *)
type common = {
  seed : int; cycles : int; utilization : float; test_set : string;
  obs : obs;
}

let common_t =
  let make seed cycles utilization test_set obs =
    { seed; cycles; utilization; test_set; obs }
  in
  Term.(const make $ seed $ cycles $ utilization $ test_set $ obs_t)

(* --- the run harness -------------------------------------------------------- *)

let obs_begin ~command ~obs ~config =
  if obs.trace || obs.report <> None || obs.perfetto <> None then
    Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Obs.Metrics.reset ();
  Obs.Log.reset ();
  Thermal.Cg.clear_histories ();
  Run.begin_ ~command ~ledger:obs.ledger ~config

(* Returns the process exit status so an unwritable --report, --perfetto
   or --prom path surfaces as a clean error instead of an uncaught
   Sys_error. *)
let obs_end ~command ~obs ~config ~sections =
  if obs.trace then Format.eprintf "%a" Obs.Trace.pp_tree ();
  let write what path f =
    match path with
    | None -> 0
    | Some path -> (
      match f path with
      | () ->
        Printf.printf "wrote %s %s\n" what path;
        0
      | exception Sys_error msg ->
        Printf.eprintf "thermoplace: cannot write %s: %s\n" what msg;
        1)
  in
  let prom = write "prometheus metrics" obs.prom Obs.Prom.write_file in
  let perfetto = write "perfetto trace" obs.perfetto Obs.Perfetto.write_file in
  let report =
    write "report" obs.report (fun path ->
        let sections =
          sections @ [ ("convergence", Thermal.Cg.histories_json ()) ]
        in
        Obs.Report.write_file path
          (Obs.Report.make ~command ~config ~sections ()))
  in
  if report <> 0 then report else if perfetto <> 0 then perfetto else prom

(* One flow subcommand run. The options become the [Serve.Job.request] a
   served job would carry, so the run fingerprints as serve batches
   ([…|set=…|cycles=…], then [extra]) and prepares the same flow, timed
   as the [prepare] phase. Structured errors, the observability outputs
   and the ledger record wrap [body], which returns the report sections
   and the exit status. *)
let run_job ~command (c : common) ?(config = []) ?(extra = []) ?technique
    ?guide ?overhead ?rows body =
  with_structured_errors @@ fun () ->
  let config =
    [ ("seed", Json.Int c.seed); ("cycles", Json.Int c.cycles);
      ("utilization", Json.Float c.utilization);
      ("test_set", Json.String c.test_set) ]
    @ config
  in
  obs_begin ~command ~obs:c.obs ~config;
  let req =
    match
      Job.make ~test_set:c.test_set ?technique ~seed:c.seed ~cycles:c.cycles
        ~utilization:c.utilization ?guide ?overhead ?rows command
    with
    | Ok req -> req
    | Error msg -> invalid_arg msg (* the converters enforce the same rules *)
  in
  Run.fingerprint := Job.fingerprint ~extra req;
  let flow = Run.phase "prepare" (fun () -> Job.prepare_flow req) in
  let sections, status = body req flow in
  let written = obs_end ~command ~obs:c.obs ~config ~sections in
  if written <> 0 then written else status

let eval_json (ev : Flow.evaluation) =
  Json.Obj
    [ ("thermal", Thermal.Metrics.to_json ev.Flow.metrics);
      ("hotspots", Json.List (List.map Postplace.Hotspot.to_json ev.Flow.hotspots));
      ("critical_ps", Json.Float ev.Flow.timing.Sta.Timing.critical_ps);
      ("hpwl_um", Json.Float (Place.Placement.hpwl ev.Flow.placement));
      ("placement_utilization",
       Json.Float (Place.Placement.utilization ev.Flow.placement)) ]

let evaluate_base flow =
  let base =
    Run.phase "evaluate" (fun () -> Flow.evaluate flow flow.Flow.base_placement)
  in
  Run.set_peak base.Flow.metrics.Thermal.Metrics.peak_rise_k;
  base

(* Apply the request's technique with the serve executor, timed as
   [phase], and score it, timed as [evaluate_after]; the ledger takes the
   committed plan's hash and the scored peak. *)
let apply_and_score ~phase ~flow ~base req =
  let applied = Run.phase phase (fun () -> Job.apply ~flow ~base req) in
  Run.plan_hash := Option.map Job.plan_digest applied.Job.plan;
  let ex =
    Run.phase "evaluate_after" (fun () -> Job.score ~flow ~base req applied)
  in
  Run.set_peak ex.Job.peak_rise_k;
  (applied, ex)

(* --- flow ---------------------------------------------------------------- *)

let technique_arg =
  let doc = "Technique to apply: $(b,none), $(b,default), $(b,eri), $(b,hw)." in
  let techniques = "none" :: List.filter (( <> ) "optimize") Job.technique_names in
  Arg.(value & opt (names techniques) "eri"
       & info [ "technique" ] ~docv:"T" ~doc)

let overhead_arg =
  let doc = "Target area overhead as a fraction in [0, 4] (e.g. 0.2 = 20%)." in
  Arg.(value
       & opt (float_range ~min:0.0 ~max_inclusive:4.0 "--overhead") 0.2
       & info [ "overhead" ] ~docv:"F" ~doc)

let run_flow c jobs technique overhead =
  Parallel.Pool.set_jobs jobs;
  run_job ~command:"flow" c
    ~config:
      [ ("technique", Json.String technique);
        ("overhead", Json.Float overhead); ("jobs", Json.Int jobs) ]
    ~extra:[ ("technique", technique); ("jobs", string_of_int jobs) ]
    ?technique:(if technique = "none" then None else Some technique)
    ~overhead
  @@ fun req flow ->
  let base = evaluate_base flow in
  Format.printf "base: %a@." Place.Placement.pp_summary base.Flow.placement;
  Format.printf "base thermal: %a@." Thermal.Metrics.pp base.Flow.metrics;
  let result =
    (* "none" still records its (empty) technique phase in the ledger *)
    if technique = "none" then Run.phase "technique" (fun () -> [])
    else begin
      let _, ex = apply_and_score ~phase:"technique" ~flow ~base req in
      let ev = ex.Job.after in
      let timing_pct =
        Sta.Timing.overhead_pct ~before:base.Flow.timing ~after:ev.Flow.timing
      in
      Format.printf "after %s: %a@." technique Thermal.Metrics.pp
        ev.Flow.metrics;
      Format.printf
        "area overhead %.1f%%, peak reduction %.2f%%, timing %+0.2f%%@."
        ex.Job.area_overhead_pct ex.Job.reduction_pct timing_pct;
      [ ("result",
         Json.Obj
           [ ("scheme", Json.String technique);
             ("area_overhead_pct", Json.Float ex.Job.area_overhead_pct);
             ("peak_reduction_pct", Json.Float ex.Job.reduction_pct);
             ("gradient_reduction_pct",
              Json.Float
                (Thermal.Metrics.gradient_reduction_pct
                   ~before:base.Flow.metrics ~after:ev.Flow.metrics));
             ("timing_overhead_pct", Json.Float timing_pct);
             ("after", eval_json ev) ]) ]
    end
  in
  (("base", eval_json base) :: result, 0)

(* --- report ---------------------------------------------------------------- *)

let run_report c =
  run_job ~command:"report" c @@ fun _ flow ->
  let nl = flow.Flow.bench.Netgen.Benchmark.netlist in
  Format.printf "%a@." Netlist.Stats.pp (Netlist.Stats.compute flow.Flow.tech nl);
  Array.iter
    (fun u ->
       let cells = Netlist.Types.cells_of_unit nl u.Netgen.Benchmark.tag in
       Format.printf "unit %d %-8s %6d cells  %s@." u.Netgen.Benchmark.tag
         u.Netgen.Benchmark.unit_name (List.length cells)
         u.Netgen.Benchmark.description)
    flow.Flow.bench.Netgen.Benchmark.units;
  let base = evaluate_base flow in
  Format.printf "placement: %a@." Place.Placement.pp_summary base.Flow.placement;
  Format.printf "thermal:   %a@." Thermal.Metrics.pp base.Flow.metrics;
  Format.printf "critical path: %.0f ps@."
    base.Flow.timing.Sta.Timing.critical_ps;
  Format.printf "hotspots:@.";
  List.iteri
    (fun i h ->
       Format.printf "  #%d %s tiles=%d cells=%d peak=%.3fK@." i
         (Geo.Rect.to_string h.Postplace.Hotspot.rect)
         (Postplace.Hotspot.tile_count h)
         (List.length h.Postplace.Hotspot.cells)
         h.Postplace.Hotspot.peak_rise_k)
    base.Flow.hotspots;
  ([ ("base", eval_json base) ], 0)

(* --- maps ------------------------------------------------------------------- *)

let ascii_arg =
  let doc = "Render maps as terminal shading instead of numeric matrices." in
  Arg.(value & flag & info [ "ascii" ] ~doc)

let run_maps c ascii =
  run_job ~command:"maps" c @@ fun _ flow ->
  let power, thermal =
    Run.phase "maps" (fun () -> Postplace.Experiment.fig5_maps flow)
  in
  let metrics = Thermal.Metrics.of_map thermal in
  Run.set_peak metrics.Thermal.Metrics.peak_rise_k;
  let dump name g =
    Format.printf "# %s (%dx%d, top row first)@." name (Geo.Grid.nx g)
      (Geo.Grid.ny g);
    if ascii then Format.printf "%a@." Geo.Grid.pp_shaded g
    else Format.printf "%a@." Geo.Grid.pp_rows g
  in
  dump "power [W/tile]" power;
  dump "thermal rise [K]" thermal;
  ([ ("thermal", Thermal.Metrics.to_json metrics) ], 0)

(* --- export ------------------------------------------------------------------ *)

let outdir_arg =
  let doc = "Directory for the exported files (created if missing)." in
  Arg.(value & opt string "export" & info [ "outdir"; "o" ] ~docv:"DIR" ~doc)

let run_export c outdir =
  run_job ~command:"export" c ~config:[ ("outdir", Json.String outdir) ]
  @@ fun _ flow ->
  if not (Sys.file_exists outdir) then Unix.mkdir outdir 0o755;
  let base = evaluate_base flow in
  let pl = base.Flow.placement in
  let nl = flow.Flow.bench.Netgen.Benchmark.netlist in
  let path name = Filename.concat outdir name in
  let fillers, problem =
    Run.phase "export" @@ fun () ->
    Netlist.Verilog.write_file (path "design.v") ~module_name:"design" nl;
    Celllib.Lef.write_file (path "cells.lef") flow.Flow.tech;
    let fillers = Place.Filler.fill pl in
    Place.Def_writer.write_file (path "design.def") ~fillers pl;
    let problem =
      Thermal.Mesh.build flow.Flow.mesh_config ~power:base.Flow.power_map
    in
    Thermal.Spice.write_file (path "thermal.sp") problem;
    let overlay =
      { Place.Svg.heat = Some base.Flow.thermal_map;
        outlines =
          List.map (fun h -> h.Postplace.Hotspot.rect) base.Flow.hotspots }
    in
    Place.Svg.write_file (path "layout.svg") ~fillers ~overlay pl;
    (fillers, problem)
  in
  Format.printf
    "wrote %s/design.v (%d cells), cells.lef, design.def (%d fillers), \
     thermal.sp (%d resistors), layout.svg@."
    outdir
    (Netlist.Types.num_cells nl)
    (List.length fillers)
    (Thermal.Spice.count_resistors problem);
  ([ ("base", eval_json base) ], 0)

(* --- sweep ------------------------------------------------------------------- *)

let checkpoint_arg =
  let doc =
    "Checkpoint the sweep to $(docv) (atomic JSON, written after every \
     completed point) and resume from it when it already exists. A resumed \
     sweep reproduces the uninterrupted run bit-identically; a checkpoint \
     from different sweep parameters is rejected."
  in
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let run_sweep c jobs checkpoint =
  Parallel.Pool.set_jobs jobs;
  run_job ~command:"sweep" c
    ~config:[ ("jobs", Json.Int jobs) ]
    ~extra:[ ("jobs", string_of_int jobs) ]
  @@ fun _ flow ->
  let module E = Postplace.Experiment in
  let fig6 = Run.phase "sweep" (fun () -> E.run_fig6 ?checkpoint flow) in
  Run.set_peak fig6.E.base_eval.Flow.metrics.Thermal.Metrics.peak_rise_k;
  let points = fig6.E.default_points @ fig6.E.eri_points @ fig6.E.hw_points in
  Format.printf "%-10s %12s %14s %12s@." "scheme" "overhead[%]"
    "reduction[%]" "timing[+%]";
  List.iter
    (fun (p : E.point) ->
       Format.printf "%-10s %12.2f %14.2f %12.2f@." p.E.scheme
         p.E.area_overhead_pct p.E.temp_reduction_pct p.E.timing_overhead_pct)
    points;
  ([ ("base", eval_json fig6.E.base_eval);
     ("points", Json.List (List.map E.point_to_json points)) ],
   0)

(* --- optimize ---------------------------------------------------------------- *)

let rows_arg =
  let doc = "Empty-row budget to allocate greedily (>= 1)." in
  Arg.(value & opt (int_min ~min:1 "--rows") 2
       & info [ "rows" ] ~docv:"N" ~doc)

(* Under the gradient guide, the base placement's sensitivity map: where a
   watt buys the most peak temperature. *)
let sensitivity_sections (req : Job.request) flow =
  match req.Job.guide with
  | Flow.Guide_peak -> []
  | Flow.Guide_gradient ->
    let adj =
      Run.phase "sensitivity" (fun () ->
          Flow.sensitivity flow flow.Flow.base_placement)
    in
    let sens = adj.Thermal.Adjoint.sensitivity in
    let ix, iy = Geo.Grid.argmax sens in
    let gap =
      adj.Thermal.Adjoint.smoothed_peak_k -. adj.Thermal.Adjoint.peak_rise_k
    in
    Format.printf
      "adjoint sensitivity: peak %.3f K/W at tile (%d, %d), smoothing gap \
       %.3f K@."
      (Geo.Grid.max_value sens) ix iy gap;
    [ ("sensitivity",
       Json.Obj
         [ ("peak_k_per_w", Json.Float (Geo.Grid.max_value sens));
           ("argmax_ix", Json.Int ix);
           ("argmax_iy", Json.Int iy);
           ("smoothed_peak_k", Json.Float adj.Thermal.Adjoint.smoothed_peak_k);
           ("smoothing_gap_k", Json.Float gap);
           ("cg_iterations", Json.Int adj.Thermal.Adjoint.cg_iterations) ]) ]

let run_optimize c jobs guide rows =
  Parallel.Pool.set_jobs jobs;
  run_job ~command:"optimize" c
    ~config:
      [ ("rows", Json.Int rows); ("jobs", Json.Int jobs);
        ("guide", Json.String guide) ]
    ~extra:
      [ ("rows", string_of_int rows); ("jobs", string_of_int jobs);
        ("guide", guide) ]
    ~technique:"optimize" ~guide ~rows
  @@ fun req flow ->
  let base =
    Run.phase "evaluate" (fun () -> Flow.evaluate flow flow.Flow.base_placement)
  in
  Format.printf "base thermal: %a@." Thermal.Metrics.pp base.Flow.metrics;
  let sens_sections = sensitivity_sections req flow in
  let applied, ex = apply_and_score ~phase:"optimize" ~flow ~base req in
  let r = Option.get applied.Job.optimizer in
  let module O = Postplace.Optimizer in
  Format.printf "optimized: %a@." Thermal.Metrics.pp ex.Job.after.Flow.metrics;
  Format.printf
    "rows %d, evaluations %d (adjoint %d), area overhead %.1f%%, peak \
     reduction %.2f%%@."
    rows r.O.evaluations r.O.adjoint_evaluations ex.Job.area_overhead_pct
    ex.Job.reduction_pct;
  ((("base", eval_json base) :: sens_sections)
   @ [ ("result",
        Json.Obj
          [ ("rows", Json.Int rows);
            ("evaluations", Json.Int r.O.evaluations);
            ("blur_evaluations", Json.Int r.O.blur_evaluations);
            ("adjoint_evaluations", Json.Int r.O.adjoint_evaluations);
            ("predicted_peak_k", Json.Float r.O.predicted_peak_k);
            ("inserted_after",
             Json.List
               (List.map (fun i -> Json.Int i)
                  r.O.plan.Postplace.Technique.inserted_after));
            ("area_overhead_pct", Json.Float ex.Job.area_overhead_pct);
            ("peak_reduction_pct", Json.Float ex.Job.reduction_pct);
            ("after", eval_json ex.Job.after) ]) ],
   0)

(* --- check ------------------------------------------------------------------- *)

let run_check c =
  run_job ~command:"check" c @@ fun _ flow ->
  let outcomes =
    Run.phase "check" (fun () ->
        Flow.check_design flow flow.Flow.base_placement)
  in
  List.iter
    (fun (o : Robust.Validate.outcome) ->
       match o.Robust.Validate.failure with
       | None -> Format.printf "PASS %s@." o.Robust.Validate.check_name
       | Some detail ->
         Format.printf "FAIL %s: %s@." o.Robust.Validate.check_name detail)
    outcomes;
  let failures =
    List.filter (fun o -> o.Robust.Validate.failure <> None) outcomes
  in
  Format.printf "%d/%d checks passed@."
    (List.length outcomes - List.length failures)
    (List.length outcomes);
  let outcome_json (o : Robust.Validate.outcome) =
    Json.Obj
      [ ("check", Json.String o.Robust.Validate.check_name);
        ("failure",
         Option.fold ~none:Json.Null ~some:(fun d -> Json.String d)
           o.Robust.Validate.failure) ]
  in
  ( [ ("checks", Json.List (List.map outcome_json outcomes)) ],
    match failures with
    | [] -> 0
    | o :: _ ->
      Robust.Error.exit_code
        (Robust.Error.Invariant_violation
           { check = o.Robust.Validate.check_name;
             detail = Option.value o.Robust.Validate.failure ~default:"" }) )

(* --- serve ------------------------------------------------------------------- *)

let input_arg =
  let doc =
    "Read JSONL job requests from $(docv) ($(b,-) = stdin). One request \
     object per line; see the Serving section of the README for the \
     schema."
  in
  Arg.(value & opt string "-" & info [ "input"; "i" ] ~docv:"FILE" ~doc)

let output_arg =
  let doc =
    "Write JSONL responses to $(docv) ($(b,-) = stdout). Exactly one \
     response line per request line, in completion order."
  in
  Arg.(value & opt string "-" & info [ "output"; "o" ] ~docv:"FILE" ~doc)

let queue_cap_arg =
  let doc =
    "Bounded admission-queue capacity (>= 1). A request arriving on a \
     full queue is rejected with a structured queue-full error (exit \
     class 14 in its response) instead of buffered without limit."
  in
  Arg.(value & opt (int_min ~min:1 "--queue-cap") 64
       & info [ "queue-cap" ] ~docv:"N" ~doc)

let flow_slots_arg =
  let doc =
    "Prepared-flow MRU cache capacity (>= 1): how many distinct config \
     fingerprints keep their prepared flow and base evaluation warm \
     across batches."
  in
  Arg.(value & opt (int_min ~min:1 "--flow-slots") 4
       & info [ "flow-slots" ] ~docv:"N" ~doc)

let max_retries_arg =
  let doc =
    "Retry budget for transient failures (solver divergence, worker \
     failure) with seeded-jitter exponential backoff; validation errors \
     are never retried. A request's own max_retries field overrides \
     this."
  in
  Arg.(value & opt (int_min ~min:0 "--max-retries") 2
       & info [ "max-retries" ] ~docv:"N" ~doc)

let retry_base_ms_arg =
  let doc = "Base delay of the exponential retry backoff, in milliseconds." in
  Arg.(value
       & opt (float_range ~min:0.0 ~min_exclusive:0.0 "--retry-base-ms") 25.0
       & info [ "retry-base-ms" ] ~docv:"MS" ~doc)

let run_serve input output queue_cap flow_slots max_retries retry_base_ms
    jobs obs =
  with_structured_errors @@ fun () ->
  let config =
    [ ("input", Json.String input); ("output", Json.String output);
      ("queue_cap", Json.Int queue_cap); ("flow_slots", Json.Int flow_slots);
      ("max_retries", Json.Int max_retries);
      ("retry_base_ms", Json.Float retry_base_ms);
      ("jobs", Json.Int jobs) ]
  in
  obs_begin ~command:"serve" ~obs ~config;
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
  let in_fd =
    if input = "-" then Unix.stdin
    else
      try Unix.openfile input [ Unix.O_RDONLY ] 0
      with Unix.Unix_error (e, _, _) ->
        fail "thermoplace: cannot open %s: %s" input (Unix.error_message e)
  in
  let out_ch, close_output =
    if output = "-" then (stdout, fun () -> flush stdout)
    else
      match open_out output with
      | oc -> (oc, fun () -> close_out oc)
      | exception Sys_error msg -> fail "thermoplace: cannot open output: %s" msg
  in
  (* Per-job ledger records go to the same ledger as this run's own
     summary record, so `history list --job ID` sees both sides. *)
  let server_config =
    { Serve.Server.default_config with
      Serve.Server.queue_capacity = queue_cap;
      flow_slots;
      policy =
        { Serve.Policy.default with
          Serve.Policy.max_retries;
          base_delay_ms = retry_base_ms };
      ledger = !Run.ledger_path }
  in
  (* A read error on the input (a directory, an I/O fault) ends the run
     as an unreadable input would have at open, never as end of input. *)
  let summary =
    match
      Fun.protect
        ~finally:(fun () ->
          close_output ();
          if input <> "-" then Unix.close in_fd)
        (fun () ->
           Parallel.Pool.with_pool ~jobs @@ fun () ->
           Run.phase "serve" @@ fun () ->
           Serve.Server.run ~config:server_config ~input:in_fd ~output:out_ch
             ())
    with
    | summary -> summary
    | exception Unix.Unix_error (e, _, _) ->
      fail "thermoplace: cannot read %s: %s" input (Unix.error_message e)
  in
  (* The summary goes to stderr: stdout may be the response stream. *)
  Printf.eprintf "thermoplace: serve summary %s\n"
    (Json.to_string (Serve.Server.summary_json summary));
  obs_end ~command:"serve" ~obs ~config
    ~sections:[ ("summary", Serve.Server.summary_json summary) ]

let serve_cmd =
  let doc =
    "Serve batch optimization jobs from a JSONL request stream: bounded \
     admission queue with backpressure, same-fingerprint batching over a \
     shared prepared flow, per-job deadlines, retry with exponential \
     backoff, per-job fault isolation, and graceful drain on SIGTERM \
     (stop accepting, finish everything admitted, exit 0)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run_serve $ input_arg $ output_arg $ queue_cap_arg
          $ flow_slots_arg $ max_retries_arg $ retry_base_ms_arg $ jobs_arg
          $ obs_t)

(* --- history ----------------------------------------------------------------- *)

(* Regression forensics over the run ledger: list runs, show one record,
   diff two records' config/timings, or trend one numeric key. Records
   are addressed by the index `history list` prints; negative indexes
   count from the end (-1 = latest). *)

let history_ledger_arg =
  let doc =
    "Ledger file to read (default thermoplace.ledger.jsonl, or the \
     THERMOPLACE_LEDGER environment variable)."
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let last_arg =
  let doc = "Only consider the last $(docv) records." in
  Arg.(value & opt (some (int_min ~min:1 "--last")) None
       & info [ "last" ] ~docv:"N" ~doc)

(* Per-job records written by `thermoplace serve` carry a job_id; the
   --job filter narrows list/diff to one job's history (e.g. its retry
   attempts across server runs). CLI run records have no job_id and
   never match. Indexes printed and accepted under --job address the
   filtered view. *)
let job_arg =
  let doc =
    "Only consider records whose $(b,job_id) field equals $(docv) \
     (per-job records written by $(b,thermoplace serve)). Record indexes \
     then address the filtered list."
  in
  Arg.(value & opt (some string) None & info [ "job" ] ~docv:"ID" ~doc)

let filter_job job records =
  match job with
  | None -> records
  | Some id -> List.filter (fun r -> Obs.Ledger.job_id r = Some id) records

exception History of string

(* Run [f] over the loaded ledger; a disabled or unreadable ledger, or a
   record index out of range, is one error line and exit 1. *)
let with_ledger ledger f =
  try
    match Obs.Ledger.resolve_path ?path:ledger () with
    | None -> raise (History "ledger disabled (path \"none\")")
    | Some path -> (
      match Obs.Ledger.load path with
      | Ok records -> f path records
      | Error msg -> raise (History (Printf.sprintf "%s: %s" path msg)))
  with History msg ->
    Printf.eprintf "thermoplace: history: %s\n" msg;
    1

let take_last n l =
  match n with
  | None -> l
  | Some n ->
    let len = List.length l in
    if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let nth_record records idx =
  let n = List.length records in
  let i = if idx < 0 then n + idx else idx in
  if i < 0 || i >= n then
    raise
      (History (Printf.sprintf "record %d out of range (ledger has %d)" idx n));
  (i, List.nth records i)

let format_time ts =
  if Float.is_nan ts then "?"
  else
    let tm = Unix.localtime ts in
    Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec

let run_history_list ledger last job =
  with_ledger ledger @@ fun path records ->
  let records = filter_job job records in
  Printf.printf "ledger %s: %d record(s)%s\n" path (List.length records)
    (match job with Some id -> Printf.sprintf " for job %s" id | None -> "");
  let base = List.length records - List.length (take_last last records) in
  List.iteri
    (fun i r ->
       Printf.printf "#%-3d %s  %-10s %-5s exit=%-2d %10s  %s%s\n" (base + i)
         (format_time (Obs.Ledger.timestamp_s r))
         (Obs.Ledger.command r) (Obs.Ledger.outcome r)
         (Obs.Ledger.exit_code r)
         (match List.assoc_opt "total_ms" (Obs.Ledger.phases_ms r) with
          | Some ms -> Printf.sprintf "%.1fms" ms
          | None -> "-")
         (Obs.Ledger.fingerprint r)
         (match Obs.Ledger.job_id r with
          | Some id when job = None -> "  job=" ^ id
          | _ -> ""))
    (take_last last records);
  0

let run_history_show ledger idx =
  with_ledger ledger @@ fun _path records ->
  print_endline (Obs.Json.to_string ~pretty:true (snd (nth_record records idx)));
  0

let run_history_diff ledger job idx_a idx_b =
  with_ledger ledger @@ fun _path records ->
  let records = filter_job job records in
  let ia, a = nth_record records idx_a in
  let ib, b = nth_record records idx_b in
  List.iter
    (fun (tag, i, r) ->
       Printf.printf "%s: #%d %s %s  %s\n" tag i
         (format_time (Obs.Ledger.timestamp_s r))
         (Obs.Ledger.command r) (Obs.Ledger.fingerprint r))
    [ ("a", ia, a); ("b", ib, b) ];
  (* union of both records' keys, a's order first *)
  let keys fa fb =
    List.map fst fa
    @ List.filter (fun k -> not (List.mem_assoc k fa)) (List.map fst fb)
  in
  let cell render v = Option.fold ~none:"-" ~some:render v in
  (* config delta *)
  let cfg_a = Obs.Ledger.config_fields a in
  let cfg_b = Obs.Ledger.config_fields b in
  let changed =
    List.filter
      (fun k -> List.assoc_opt k cfg_a <> List.assoc_opt k cfg_b)
      (keys cfg_a cfg_b)
  in
  if changed = [] then print_endline "config: identical"
  else begin
    print_endline "config:";
    List.iter
      (fun k ->
         let render cfg = cell Obs.Json.to_string (List.assoc_opt k cfg) in
         Printf.printf "  %-14s %s -> %s\n" k (render cfg_a) (render cfg_b))
      changed
  end;
  (* per-phase timing delta *)
  let ph_a = Obs.Ledger.phases_ms a in
  let ph_b = Obs.Ledger.phases_ms b in
  let phase_keys = keys ph_a ph_b in
  if phase_keys <> [] then begin
    Printf.printf "%-18s %12s %12s %10s\n" "phase" "a[ms]" "b[ms]" "delta";
    List.iter
      (fun k ->
         let va = List.assoc_opt k ph_a and vb = List.assoc_opt k ph_b in
         let pct =
           match (va, vb) with
           | Some va, Some vb when va > 0.0 ->
             Printf.sprintf "%+.1f%%" ((vb -. va) /. va *. 100.0)
           | _ -> "-"
         in
         let ms = cell (Printf.sprintf "%.1f") in
         Printf.printf "%-18s %12s %12s %10s\n" k (ms va) (ms vb) pct)
      phase_keys
  end;
  let scalar name read render =
    let get r = Option.bind (Obs.Json.member name r) read in
    match (get a, get b) with
    | None, None -> ()
    | va, vb when va = vb -> Printf.printf "%-18s %s (same)\n" name (cell render va)
    | va, vb ->
      Printf.printf "%-18s %s -> %s\n" name (cell render va) (cell render vb)
  in
  scalar "cg_iterations" Obs.Json.to_float (Printf.sprintf "%.6g");
  scalar "peak_rise_k" Obs.Json.to_float (Printf.sprintf "%.6g");
  scalar "plan_hash" Obs.Json.to_string_opt Fun.id;
  0

(* A trend key is a phases_ms entry first, then any numeric top-level
   record field (peak_rise_k, cg_iterations, exit_code...). *)
let trend_value key r =
  match List.assoc_opt key (Obs.Ledger.phases_ms r) with
  | Some v -> Some v
  | None -> Option.bind (Obs.Json.member key r) Obs.Json.to_float

let trend_key_arg =
  let doc =
    "Numeric key to trend: a phases_ms entry (optimize_ms, total_ms, ...) \
     or a top-level record field (peak_rise_k, cg_iterations)."
  in
  Arg.(value & opt string "total_ms" & info [ "key" ] ~docv:"KEY" ~doc)

let run_history_trend ledger key last =
  with_ledger ledger @@ fun _path records ->
  let points =
    List.filter_map
      (fun r -> Option.map (fun v -> (r, v)) (trend_value key r))
      (take_last last records)
  in
  let vmax = List.fold_left (fun m (_, v) -> Float.max m v) 0.0 points in
  if points = [] then Printf.printf "no records carry key %S\n" key
  else Printf.printf "%-20s %12s  %-30s %s\n" "time" key "" "fingerprint";
  List.iter
    (fun (r, v) ->
       let width =
         if vmax > 0.0 then int_of_float (Float.round (v /. vmax *. 30.0))
         else 0
       in
       Printf.printf "%-20s %12.2f  %-30s %s\n"
         (format_time (Obs.Ledger.timestamp_s r))
         v
         (String.make (max 0 (min 30 width)) '#')
         (Obs.Ledger.fingerprint r))
    points;
  0

let history_cmd =
  let list_cmd =
    let doc = "List ledger records (index, time, command, outcome, total)." in
    Cmd.v (Cmd.info "list" ~doc)
      Term.(const run_history_list $ history_ledger_arg $ last_arg $ job_arg)
  in
  let idx_pos n docv =
    Arg.(required & pos n (some int) None & info [] ~docv)
  in
  let show_cmd =
    let doc = "Pretty-print one ledger record (negative index = from end)." in
    Cmd.v (Cmd.info "show" ~doc)
      Term.(const run_history_show $ history_ledger_arg $ idx_pos 0 "IDX")
  in
  let diff_cmd =
    let doc =
      "Diff two ledger records: config delta, per-phase timing delta, CG \
       iteration / peak temperature / plan-hash changes."
    in
    Cmd.v (Cmd.info "diff" ~doc)
      Term.(const run_history_diff $ history_ledger_arg $ job_arg
            $ idx_pos 0 "A" $ idx_pos 1 "B")
  in
  let trend_cmd =
    let doc = "Print one numeric key across records with an ASCII bar." in
    Cmd.v (Cmd.info "trend" ~doc)
      Term.(const run_history_trend $ history_ledger_arg $ trend_key_arg
            $ last_arg)
  in
  let doc = "Inspect the cross-run ledger (list, show, diff, trend)." in
  Cmd.group (Cmd.info "history" ~doc) [ list_cmd; show_cmd; diff_cmd; trend_cmd ]

(* --- command wiring ------------------------------------------------------------ *)

let flow_cmd =
  let doc = "Run the flow and apply one temperature-reduction technique." in
  Cmd.v (Cmd.info "flow" ~doc)
    Term.(const run_flow $ common_t $ jobs_arg $ technique_arg $ overhead_arg)

let report_cmd =
  let doc = "Print netlist, placement, power and thermal summaries." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run_report $ common_t)

let maps_cmd =
  let doc = "Dump power and thermal maps (Fig. 5 data)." in
  Cmd.v (Cmd.info "maps" ~doc) Term.(const run_maps $ common_t $ ascii_arg)

let sweep_cmd =
  let doc = "Reduction-vs-overhead sweep for all three schemes (Fig. 6)." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run_sweep $ common_t $ jobs_arg $ checkpoint_arg)

let check_cmd =
  let doc =
    "Run the design invariant suite (placement legality, floorplan \
     containment, power-map sanity, mesh-matrix SPD structure, bounded \
     temperatures) and exit non-zero on any violation."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run_check $ common_t)

let optimize_cmd =
  let doc =
    "Allocate an empty-row budget with the greedy row-budget optimizer \
     (candidates priced from row profiles by the exact power blur where it \
     is defined, thermal solves where it is not, or the gradient guide, in \
     parallel on the domain pool)."
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(const run_optimize $ common_t $ jobs_arg $ guide_arg $ rows_arg)

let export_cmd =
  let doc =
    "Export the design: structural Verilog, DEF placement, SPICE thermal \
     netlist and an SVG layout with hotspot overlay."
  in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run_export $ common_t $ outdir_arg)

let () =
  (match Robust.Faults.init_from_env () with
   | Ok () -> ()
   | Error msg ->
     Printf.eprintf "thermoplace: %s\n" msg;
     exit 2);
  let doc = "post-placement temperature reduction (Liu & Nannarelli, DATE'10)" in
  let info = Cmd.info "thermoplace" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ flow_cmd; report_cmd; maps_cmd; sweep_cmd; optimize_cmd;
            check_cmd; export_cmd; serve_cmd; history_cmd ]))
