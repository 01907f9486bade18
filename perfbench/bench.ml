(* One repetition of one benchmark workload, in a fresh process so every
   cache (mesh matrices, multigrid hierarchies, blur kernels, the serve
   flow cache) starts empty and the heap high-water mark is this
   repetition's own.

     bench.exe WORKLOAD SEED TRACE < requests

   WORKLOAD is fig6_sweep, optimize_160 or serve_mix; SEED is the prepare
   seed; TRACE is 0 or 1. serve_mix reads its generated JSONL request mix
   from stdin. Prints one JSON object: the timings, the deterministic
   results (compared across runs and against references by run.py), the
   output-check failures and, with TRACE=1, the per-layer metrics.

   The benchmark adds no instrumentation to the library: it wraps each
   public entry call in a [bench.*] span of its own and reads the spans
   and registry series the library already records. *)

module Flow = Postplace.Flow
module Json = Obs.Json

let now = Obs.Clock.now
let span = Obs.Trace.with_span
let hex f = Printf.sprintf "%h" f

(* --- typed registry reads ------------------------------------------------- *)

(* Every series of [name], under any label set. A series registered under
   another kind than the one asked for is a wiring error and fails the run;
   a name never recorded reads as zero. *)
let series name =
  List.filter
    (fun (s : Obs.Metrics.series) -> s.Obs.Metrics.name = name)
    (Obs.Metrics.snapshot ())

let kind_mismatch name kind =
  failwith (Printf.sprintf "metric %s is registered, but not as a %s" name kind)

let counter ?labels name =
  List.fold_left
    (fun acc (s : Obs.Metrics.series) ->
      match s.Obs.Metrics.value with
      | Obs.Metrics.Counter n -> (
        match labels with
        | Some l when s.Obs.Metrics.labels <> l -> acc
        | _ -> acc + n)
      | _ -> kind_mismatch name "counter")
    0 (series name)

let histograms name =
  List.map
    (fun (s : Obs.Metrics.series) ->
      match s.Obs.Metrics.value with
      | Obs.Metrics.Histogram h -> (s.Obs.Metrics.labels, h)
      | _ -> kind_mismatch name "histogram")
    (series name)

let histogram_sum name =
  List.fold_left
    (fun acc (_, h) -> acc +. h.Obs.Metrics.sum)
    0.0 (histograms name)

let histogram_p50 name ~labels =
  match List.assoc_opt labels (histograms name) with
  | Some h when h.Obs.Metrics.count > 0 -> Obs.Metrics.percentile h 0.5
  | _ -> 0.0

(* --- span aggregation ----------------------------------------------------- *)

type layer = {
  mutable total_s : float;  (* outermost occurrences only *)
  mutable self_s : float;
  mutable calls : int;
  mutable alloc_w : float;  (* outermost occurrences only *)
}

(* Length of the union of [s]'s children's intervals, clipped to [s]. *)
let covered (s : Obs.Trace.span) =
  let lo = s.Obs.Trace.start_s in
  let hi = lo +. s.Obs.Trace.duration_s in
  let intervals =
    List.sort compare
      (List.map
         (fun (c : Obs.Trace.span) ->
           ( Float.max lo c.Obs.Trace.start_s,
             Float.min hi (c.Obs.Trace.start_s +. c.Obs.Trace.duration_s) ))
         s.Obs.Trace.children)
  in
  fst
    (List.fold_left
       (fun (acc, reach) (a, b) ->
         let a = Float.max a reach in
         if b > a then (acc +. b -. a, b) else (acc, reach))
       (0.0, lo) intervals)

(* Per span name: total time (a span nested under a same-named ancestor is
   not counted twice), self time, call count and allocation, summed over
   every domain's forest. *)
let aggregate forests =
  let tbl = Hashtbl.create 64 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some l -> l
    | None ->
      let l = { total_s = 0.0; self_s = 0.0; calls = 0; alloc_w = 0.0 } in
      Hashtbl.add tbl name l;
      l
  in
  let rec walk outer (s : Obs.Trace.span) =
    let l = get s.Obs.Trace.name in
    l.calls <- l.calls + 1;
    l.self_s <- l.self_s +. (s.Obs.Trace.duration_s -. covered s);
    if not (List.mem s.Obs.Trace.name outer) then begin
      let g = s.Obs.Trace.gc in
      l.total_s <- l.total_s +. s.Obs.Trace.duration_s;
      l.alloc_w <-
        l.alloc_w +. g.Obs.Trace.minor_words +. g.Obs.Trace.major_words
        -. g.Obs.Trace.promoted_words
    end;
    List.iter (walk (s.Obs.Trace.name :: outer)) s.Obs.Trace.children
  in
  List.iter (fun (_, roots) -> List.iter (walk []) roots) forests;
  tbl

(* --- workloads ------------------------------------------------------------ *)

type outcome = {
  executors : int;
  setup_s : float;
  wall_s : float;
  jobs_ms : float list;  (* per-job latencies; serve_mix only *)
  attempted : int;
  failures : string list;  (* one entry per failed operation *)
  reduction_pct : float;
  results : Json.t;  (* deterministic: a function of the inputs alone *)
}

let finite = Float.is_finite

(* The paper's Fig. 6: Test set 1 with the CLI defaults, swept over the
   eight default area overheads. *)
let fig6_sweep ~seed =
  Parallel.Pool.set_jobs 2;
  let t0 = now () in
  let flow =
    span "bench.prepare" (fun () -> Postplace.Experiment.test_set_1 ~seed ())
  in
  let t1 = now () in
  let fig =
    span "bench.run_fig6" (fun () -> Postplace.Experiment.run_fig6 flow)
  in
  let t2 = now () in
  let module E = Postplace.Experiment in
  let point_ok (p : E.point) =
    finite p.E.temp_reduction_pct && finite p.E.peak_rise_k
    && finite p.E.area_overhead_pct && finite p.E.timing_overhead_pct
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (p : E.point) ->
      if not (point_ok p) then
        fail "Default point at %.0f%% is not finite" p.E.area_overhead_pct)
    fig.E.default_points;
  let above scheme points =
    List.iteri
      (fun i (p : E.point) ->
        let d = List.nth fig.E.default_points i in
        if not (point_ok p && p.E.temp_reduction_pct > d.E.temp_reduction_pct)
        then
          fail "%s point %d (%.3f%%) not above Default (%.3f%%)" scheme i
            p.E.temp_reduction_pct d.E.temp_reduction_pct)
      points
  in
  above "ERI" fig.E.eri_points;
  above "HW" fig.E.hw_points;
  let technique_points = fig.E.eri_points @ fig.E.hw_points in
  let all_points = fig.E.default_points @ technique_points in
  let reduction =
    List.fold_left (fun s (p : E.point) -> s +. p.E.temp_reduction_pct) 0.0
      technique_points
    /. float_of_int (List.length technique_points)
  in
  let results =
    Json.List
      (List.map
         (fun (p : E.point) ->
           Json.List
             [ Json.String p.E.scheme; Json.String (hex p.E.area_overhead_pct);
               Json.String (hex p.E.temp_reduction_pct);
               Json.String (hex p.E.peak_rise_k);
               Json.String (hex p.E.timing_overhead_pct) ])
         all_points)
  in
  { executors = 2; setup_s = t1 -. t0; wall_s = t2 -. t1; jobs_ms = [];
    attempted = List.length all_points; failures = !failures;
    reduction_pct = reduction; results }

(* The greedy optimizer at the production 160 x 160 grid, configured as
   the fft/adjoint kernel suites configure it. *)
let optimize_160 ~seed =
  Parallel.Pool.set_jobs 2;
  let t0 = now () in
  let flow =
    span "bench.prepare" (fun () ->
        Postplace.Experiment.test_set_1 ~seed ~precond:Thermal.Mesh.Pc_mg
          ~screen:Flow.Screen_auto ~guide:Flow.Guide_peak ())
  in
  let t1 = now () in
  let num_rows =
    flow.Flow.base_placement.Place.Placement.fp.Place.Floorplan.num_rows
  in
  let res =
    span "bench.greedy_rows" (fun () ->
        Postplace.Optimizer.greedy_rows flow ~rows:8 ~chunk:4
          ~stride:(max 1 (num_rows / 20))
          ~coarse_nx:160 ())
  in
  let plan = res.Postplace.Optimizer.plan in
  let ev =
    span "bench.evaluate" (fun () ->
        Flow.evaluate flow plan.Postplace.Technique.eri_placement)
  in
  let t2 = now () in
  (* untimed: the base evaluation the reduction is measured against *)
  let base =
    span "bench.evaluate_base" (fun () ->
        Flow.evaluate flow flow.Flow.base_placement)
  in
  let predicted = res.Postplace.Optimizer.predicted_peak_k in
  let peak = ev.Flow.metrics.Thermal.Metrics.peak_rise_k in
  let reduction =
    Thermal.Metrics.reduction_pct ~before:base.Flow.metrics
      ~after:ev.Flow.metrics
  in
  let after = plan.Postplace.Technique.inserted_after in
  let failures =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [ (finite predicted && finite peak, "optimizer peaks are not finite");
        (Float.abs (predicted -. peak) <= 0.02 *. peak,
         Printf.sprintf "predicted peak %.6f K is not within 2%% of the \
                         full-mesh peak %.6f K" predicted peak);
        (List.length after = 8,
         Printf.sprintf "plan inserts %d rows, not 8" (List.length after));
        (reduction > 0.0,
         Printf.sprintf "committed plan does not cool (%.3f%%)" reduction) ]
  in
  let results =
    Json.Obj
      [ ("inserted_after", Json.List (List.map (fun r -> Json.Int r) after));
        ("predicted_peak_k", Json.Float predicted);
        ("peak_rise_k", Json.Float peak);
        ("exact", Json.String (hex predicted ^ " " ^ hex peak));
        ("evaluations", Json.Int res.Postplace.Optimizer.evaluations);
        ("blur_evaluations", Json.Int res.Postplace.Optimizer.blur_evaluations)
      ]
  in
  { executors = 2; setup_s = t1 -. t0; wall_s = t2 -. t1; jobs_ms = [];
    attempted = 1;
    failures = (if failures = [] then [] else [ String.concat "; " failures ]);
    reduction_pct = reduction; results }

(* Read [fd] to EOF on a domain of its own, stamping each complete line
   with the time it arrived. *)
let stamp_lines fd =
  Domain.spawn (fun () ->
      let chunk = Bytes.create 4096 and buf = Buffer.create 4096 in
      let rec go acc =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> List.rev acc
        | n ->
          let acc = ref acc in
          for i = 0 to n - 1 do
            match Bytes.get chunk i with
            | '\n' ->
              acc := (now (), Buffer.contents buf) :: !acc;
              Buffer.clear buf
            | c -> Buffer.add_char buf c
          done;
          go !acc
      in
      go [])

(* An open-loop batch: every request is in the server's input before it
   starts, so all of them are due at t = 0. *)
let serve_mix ~lines =
  Parallel.Pool.set_jobs 1;
  let n = List.length lines in
  let payload = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  (* the whole mix must fit the pipe buffer, or this write would block *)
  if String.length payload > 60_000 then failwith "request mix too large";
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  ignore (Unix.write_substring in_w payload 0 (String.length payload));
  Unix.close in_w;
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let reader = stamp_lines out_r in
  let oc = Unix.out_channel_of_descr out_w in
  let config =
    { Serve.Server.default_config with
      Serve.Server.ledger = None; handle_sigterm = false }
  in
  let t0 = now () in
  let summary =
    span "bench.serve" (fun () ->
        Serve.Server.run ~config ~input:in_r ~output:oc ())
  in
  let t1 = now () in
  close_out oc;
  let stamped = Domain.join reader in
  Unix.close in_r;
  Unix.close out_r;
  let responses =
    List.map
      (fun (_, l) ->
        match Json.of_string l with
        | Ok j -> j
        | Error e -> failwith ("unparseable response: " ^ e))
      stamped
  in
  let str name j = Option.bind (Json.member name j) Json.to_string_opt in
  let num name j = Option.bind (Json.member name j) Json.to_float in
  let ids = List.map (fun l -> str "id" (Json.of_string_exn l)) lines in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let rows =
    List.filter_map
      (fun id ->
        let id = Option.value id ~default:"?" in
        match List.filter (fun r -> str "id" r = Some id) responses with
        | [ r ] -> (
          let result = Option.value (Json.member "result" r) ~default:Json.Null in
          match (str "outcome" r, num "elapsed_ms" r,
                 num "peak_reduction_pct" result) with
          | Some "ok", Some ms, Some red when finite ms && finite red ->
            Some (id, ms, red, str "plan_hash" result)
          | _ ->
            fail "job %s did not succeed" id;
            None)
        | rs ->
          fail "job %s has %d responses" id (List.length rs);
          None)
      ids
  in
  let ok_count = counter "serve.jobs" ~labels:[ ("outcome", "ok") ] in
  if ok_count <> List.length rows then
    fail "serve.jobs{outcome=ok} is %d for %d ok responses" ok_count
      (List.length rows);
  if summary.Serve.Server.accepted <> n then
    fail "server admitted %d of %d requests" summary.Serve.Server.accepted n;
  let setup_s =
    match stamped with (t, _) :: _ -> t -. t0 | [] -> Float.nan
  in
  let reduction =
    List.fold_left (fun s (_, _, red, _) -> s +. red) 0.0 rows
    /. float_of_int (max 1 (List.length rows))
  in
  let results =
    Json.List
      (List.map
         (fun (id, _, red, hash) ->
           Json.List
             [ Json.String id; Json.String (hex red);
               (match hash with Some h -> Json.String h | None -> Json.Null) ])
         (List.sort compare rows))
  in
  { executors = 1; setup_s; wall_s = t1 -. t0;
    jobs_ms = List.map (fun (_, ms, _, _) -> ms) rows; attempted = n;
    failures = !failures; reduction_pct = reduction; results }

(* --- per-layer metrics ---------------------------------------------------- *)

let layer_metrics ~(o : outcome) ~traced_s ~gc0 ~gc1 =
  let forests = Obs.Trace.all_roots () in
  let tbl = aggregate forests in
  let find name = Hashtbl.find_opt tbl name in
  let ms name = match find name with Some l -> l.total_s *. 1e3 | None -> 0.0 in
  let self_ms name =
    match find name with Some l -> l.self_s *. 1e3 | None -> 0.0
  in
  let calls name = match find name with Some l -> l.calls | None -> 0 in
  let alloc_mw name =
    match find name with Some l -> l.alloc_w /. 1e6 | None -> 0.0
  in
  let self_where p =
    Hashtbl.fold (fun name l acc -> if p name then acc +. l.self_s else acc)
      tbl 0.0
  in
  let optimizer_self_ms =
    1e3 *. self_where (String.starts_with ~prefix:"optimizer.")
  in
  (* busy: time attributed to a library span, on any domain; the benchmark's
     own wrappers only hold glue and waiting *)
  let busy_s =
    self_where (fun name -> not (String.starts_with ~prefix:"bench." name))
  in
  let me = (Domain.self () :> int) in
  let own_roots = Option.value (List.assoc_opt me forests) ~default:[] in
  let root_s =
    List.fold_left (fun s r -> s +. r.Obs.Trace.duration_s) 0.0 own_roots
  in
  (* attribution: every span's self time on the calling domain, plus the
     time outside its root spans, must account for the traced wall-clock *)
  let self_s =
    Hashtbl.fold (fun _ l acc -> acc +. l.self_s)
      (aggregate [ (me, own_roots) ]) 0.0
  in
  let unattributed_s = traced_s -. root_s in
  let attribution_gap =
    Float.abs (self_s +. unattributed_s -. traced_s) /. traced_s
  in
  let hits = counter "thermal.mesh.cache.hits"
  and misses = counter "thermal.mesh.cache.misses" in
  let cg_solves = counter "thermal.cg.solves" in
  let cg_iters = histogram_sum "thermal.cg.iterations" in
  let f x = float_of_int x in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let job_p50 t = histogram_p50 "serve.job.latency_ms" ~labels:[ ("technique", t) ] in
  let words_mw (g : Gc.stat) =
    (g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words) /. 1e6
  in
  let metrics =
    [ ("logicsim.activity_ms", ms "flow.activity");
      ("place.global_ms", ms "place.global");
      ("place.legalize_ms", ms "place.legalize");
      ("place.legalize_calls", f (calls "place.legalize"));
      ("power.model_ms", ms "flow.power");
      ("power.map_ms", ms "power.map");
      ("power.map_calls", f (calls "power.map"));
      ("thermal.mesh.build_ms", ms "thermal.mesh.build");
      ("thermal.mesh.builds", f (calls "thermal.mesh.build"));
      ("thermal.mesh.cache_hits", f hits);
      ("thermal.mesh.cache_misses", f misses);
      ("thermal.mesh.cache_evictions", f (counter "thermal.mesh.cache.evictions"));
      ("thermal.mesh.cache_hit_ratio", ratio (f hits) (f (hits + misses)));
      ("thermal.mg.build_ms", ms "thermal.mg.build");
      ("thermal.mg.builds", f (calls "thermal.mg.build"));
      ("thermal.mg.vcycles", f (counter "thermal.mg.cycles"));
      ("thermal.cg.solve_ms", ms "thermal.cg.solve");
      ("thermal.cg.solves", f cg_solves);
      ("thermal.cg.iterations", cg_iters);
      ("thermal.cg.iterations_per_solve", ratio cg_iters (f cg_solves));
      ("thermal.cg.escalations", f (counter "thermal.cg.escalations"));
      ("thermal.blur.characterize_self_ms", self_ms "thermal.blur.characterize");
      ("thermal.blur.eval_ms", ms "thermal.blur.eval");
      ("thermal.blur.evals", f (counter "thermal.blur.evals"));
      ("thermal.fft.bluestein", f (counter "thermal.fft.bluestein"));
      ("thermal.fft.radix2", f (counter "thermal.fft.radix2"));
      ("thermal.adjoint.solve_ms", ms "thermal.adjoint.solve");
      ("thermal.adjoint.solves", f (counter "thermal.adjoint.solves"));
      ("thermal.adjoint.iterations", histogram_sum "thermal.adjoint.iterations");
      ("hotspot.detect_ms", ms "hotspot.detect");
      ("sta.analyze_ms", ms "sta.analyze");
      ("sta.analyze_calls", f (calls "sta.analyze"));
      ("experiment.self_ms", self_ms "bench.run_fig6");
      ("optimizer.self_ms", optimizer_self_ms);
      ("optimizer.exact_solves", f (counter "optimizer.thermal_solves"));
      ("optimizer.blur_evaluations", f (counter "optimizer.blur_evaluations"));
      ("optimizer.adjoint_solves", f (counter "optimizer.adjoint_solves"));
      ("parallel.busy_ratio", busy_s /. (traced_s *. f o.executors));
      ("parallel.invocations", f (counter "parallel.invocations"));
      ("serve.batches", f (counter "serve.batches"));
      ("serve.flow_cache_hits", f (counter "serve.flow_cache.hits"));
      ("serve.flow_cache_misses", f (counter "serve.flow_cache.misses"));
      ("serve.job_default_p50_ms", job_p50 "default");
      ("serve.job_eri_p50_ms", job_p50 "eri");
      ("serve.job_hw_p50_ms", job_p50 "hw");
      ("serve.job_optimize_p50_ms", job_p50 "optimize");
      ("gc.alloc_mw", words_mw gc1 -. words_mw gc0);
      ("gc.major_collections",
       f (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("thermal.cg.alloc_mw", alloc_mw "thermal.cg.solve");
      ("thermal.mesh.build_alloc_mw", alloc_mw "thermal.mesh.build");
      ("trace.unattributed_ms", unattributed_s *. 1e3) ]
  in
  (metrics, attribution_gap)

(* --- entry ---------------------------------------------------------------- *)

let read_stdin_lines () =
  let rec go acc =
    match input_line stdin with
    | l when String.trim l = "" -> go acc
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let () =
  let workload, seed, traced =
    match Sys.argv with
    | [| _; w; s; t |] -> (
      match (int_of_string_opt s, t) with
      | Some s, ("0" | "1") -> (w, s, t = "1")
      | _ ->
        prerr_endline "usage: bench.exe WORKLOAD SEED (0|1)";
        exit 2)
    | _ ->
      prerr_endline "usage: bench.exe WORKLOAD SEED (0|1)";
      exit 2
  in
  let run =
    match workload with
    | "fig6_sweep" -> fun () -> fig6_sweep ~seed
    | "optimize_160" -> fun () -> optimize_160 ~seed
    | "serve_mix" ->
      let lines = read_stdin_lines () in
      if lines = [] then begin
        prerr_endline "serve_mix: no requests on stdin";
        exit 2
      end;
      fun () -> serve_mix ~lines
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  Obs.Metrics.reset ();
  Obs.Trace.set_enabled traced;
  Obs.Trace.reset ();
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let o = run () in
  let t1 = now () in
  let gc1 = Gc.quick_stat () in
  let heap_mb =
    float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let layers =
    if not traced then []
    else begin
      let metrics, gap = layer_metrics ~o ~traced_s:(t1 -. t0) ~gc0 ~gc1 in
      [ ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
        ("attribution_gap", Json.Float gap) ]
    end
  in
  let floats l = Json.List (List.map (fun v -> Json.Float v) l) in
  print_endline
    (Json.to_string
       (Json.Obj
          ([ ("workload", Json.String workload);
             ("seed", Json.Int seed);
             ("traced", Json.Bool traced);
             ("total_s", Json.Float (t1 -. t0));
             ("setup_s", Json.Float o.setup_s);
             ("wall_s", Json.Float o.wall_s);
             ("jobs_ms", floats o.jobs_ms);
             ("peak_heap_mb", Json.Float heap_mb);
             ("attempted", Json.Int o.attempted);
             ("failures", Json.List (List.map (fun m -> Json.String m) o.failures));
             ("reduction_pct", Json.Float o.reduction_pct);
             ("results", o.results);
             ("digest",
              Json.String (Digest.to_hex (Digest.string (Json.to_string o.results))))
           ]
           @ layers)))
