(* Tests for the observability layer: timing spans, the metrics registry,
   the warning channel, JSON printing/parsing and report assembly. *)

let with_tracing f =
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect ~finally:(fun () -> Obs.Trace.set_enabled false) f

(* --- trace ------------------------------------------------------------------ *)

let test_trace_disabled_is_transparent () =
  Obs.Trace.set_enabled false;
  Obs.Trace.reset ();
  let r = Obs.Trace.with_span "ignored" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (Obs.Trace.span_count ());
  Alcotest.(check (list reject)) "no roots" [] (Obs.Trace.roots ())

let test_trace_nesting () =
  with_tracing @@ fun () ->
  let r =
    Obs.Trace.with_span "outer" (fun () ->
        let a = Obs.Trace.with_span "inner1" (fun () -> 1) in
        let b = Obs.Trace.with_span "inner2" (fun () -> 2) in
        a + b)
  in
  Alcotest.(check int) "result" 3 r;
  match Obs.Trace.roots () with
  | [ outer ] ->
    Alcotest.(check string) "root name" "outer" outer.Obs.Trace.name;
    Alcotest.(check (list string)) "children in order" [ "inner1"; "inner2" ]
      (List.map (fun s -> s.Obs.Trace.name) outer.Obs.Trace.children);
    Alcotest.(check int) "count" 3 (Obs.Trace.span_count ())
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* A span's allocation is its own domain's: another domain allocating
   ~20 Mwords while the span is open must not be charged to it. The span
   body spins on an atomic without allocating. *)
let test_trace_alloc_domain_local () =
  with_tracing @@ fun () ->
  let go = Atomic.make false and finished = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do Domain.cpu_relax () done;
        for _ = 1 to 200_000 do
          ignore (Sys.opaque_identity (Array.make 100 0.0))
        done;
        Atomic.set finished true)
  in
  Obs.Trace.with_span "waiting" (fun () ->
      Atomic.set go true;
      while not (Atomic.get finished) do Domain.cpu_relax () done);
  Domain.join worker;
  match Obs.Trace.roots () with
  | [ sp ] ->
    let g = sp.Obs.Trace.gc in
    let words = g.Obs.Trace.minor_words +. g.Obs.Trace.major_words in
    if words > 1e6 then
      Alcotest.failf "span charged %.0f words of another domain's work" words
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_trace_timing_monotone () =
  with_tracing @@ fun () ->
  let spin () =
    (* busy-wait so the child span has a measurable duration *)
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 1e-4 do () done
  in
  Obs.Trace.with_span "parent" (fun () ->
      Obs.Trace.with_span "child" spin);
  match Obs.Trace.roots () with
  | [ p ] ->
    let c = List.hd p.Obs.Trace.children in
    Alcotest.(check bool) "durations non-negative" true
      (p.Obs.Trace.duration_s >= 0.0 && c.Obs.Trace.duration_s > 0.0);
    Alcotest.(check bool) "child starts after parent" true
      (c.Obs.Trace.start_s >= p.Obs.Trace.start_s);
    Alcotest.(check bool) "child within parent" true
      (c.Obs.Trace.duration_s <= p.Obs.Trace.duration_s +. 1e-9)
  | _ -> Alcotest.fail "expected one root"

let test_trace_exception_safe () =
  with_tracing @@ fun () ->
  (try
     Obs.Trace.with_span "raiser" (fun () -> failwith "boom")
   with Failure _ -> ());
  let r = Obs.Trace.with_span "after" (fun () -> ()) in
  ignore r;
  Alcotest.(check (list string)) "both spans closed at top level"
    [ "raiser"; "after" ]
    (List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.roots ()))

(* A frame is abandoned when a non-local exit skips its [finish] — here an
   effect handler that never resumes the continuation, so [Fun.protect]'s
   finally is skipped. The abandoned frame's *completed* children are real
   measurements and must be reparented to the nearest surviving ancestor,
   not dropped. *)
type _ Effect.t += Abandon : unit Effect.t

let test_trace_reparent_abandoned () =
  with_tracing @@ fun () ->
  Obs.Trace.with_span "outer" (fun () ->
      Effect.Deep.try_with
        (fun () ->
           Obs.Trace.with_span "abandoned" (fun () ->
               Obs.Trace.with_span "kept" (fun () -> ());
               Effect.perform Abandon))
        ()
        { effc =
            (fun (type a) (eff : a Effect.t) ->
               match eff with
               | Abandon ->
                 (* drop the continuation: "abandoned"'s finish never runs *)
                 Some
                   (fun (k : (a, _) Effect.Deep.continuation) -> ignore k)
               | _ -> None) });
  match Obs.Trace.roots () with
  | [ outer ] ->
    Alcotest.(check string) "surviving root" "outer" outer.Obs.Trace.name;
    Alcotest.(check (list string))
      "completed child of the abandoned frame reparented" [ "kept" ]
      (List.map (fun s -> s.Obs.Trace.name) outer.Obs.Trace.children);
    Alcotest.(check int) "abandoned frame itself not recorded" 2
      (Obs.Trace.span_count ())
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* --- clock ------------------------------------------------------------------ *)

let test_clock_ratchet () =
  (* fake wall clock slightly ahead of real time so the global watermark
     recovers immediately after the test *)
  let base = Unix.gettimeofday () +. 0.02 in
  let t = ref base in
  Obs.Clock.set_source (Some (fun () -> !t));
  Fun.protect
    ~finally:(fun () ->
      Obs.Clock.set_source None;
      (* let the real clock pass the fake watermark before later tests
         measure durations *)
      Unix.sleepf 0.05)
    (fun () ->
       let a = Obs.Clock.now () in
       Alcotest.(check (float 0.0)) "tracks the source" base a;
       t := base -. 10.0;
       let b = Obs.Clock.now () in
       Alcotest.(check (float 0.0)) "backwards step clamps to watermark" a b;
       t := base +. 0.01;
       let c = Obs.Clock.now () in
       Alcotest.(check (float 0.0)) "resumes once the source passes"
         (base +. 0.01) c;
       Alcotest.(check bool) "never decreases" true (b >= a && c >= b))

(* Spans timed across a backwards clock step must still have non-negative
   durations and non-decreasing start times. *)
let test_clock_spans_survive_backstep () =
  let base = Unix.gettimeofday () +. 0.02 in
  let t = ref base in
  Obs.Clock.set_source (Some (fun () -> !t));
  Fun.protect
    ~finally:(fun () ->
      Obs.Clock.set_source None;
      Unix.sleepf 0.05)
    (fun () ->
       with_tracing @@ fun () ->
       Obs.Trace.with_span "across-backstep" (fun () ->
           t := base -. 5.0 (* the wall clock steps back mid-span *));
       t := base +. 0.001;
       Obs.Trace.with_span "after" (fun () -> ());
       match Obs.Trace.roots () with
       | [ s1; s2 ] ->
         Alcotest.(check bool) "duration non-negative" true
           (s1.Obs.Trace.duration_s >= 0.0);
         Alcotest.(check bool) "starts non-decreasing" true
           (s2.Obs.Trace.start_s >= s1.Obs.Trace.start_s)
       | roots ->
         Alcotest.failf "expected two roots, got %d" (List.length roots))

(* --- metrics ---------------------------------------------------------------- *)

let test_metrics_counters () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Obs.Metrics.count "a";
  Obs.Metrics.count "a" ~by:4;
  Obs.Metrics.count "b";
  Alcotest.(check (option int)) "a" (Some 5) (Obs.Metrics.counter_value "a");
  Alcotest.(check (option int)) "b" (Some 1) (Obs.Metrics.counter_value "b");
  Alcotest.(check (option int)) "absent" None
    (Obs.Metrics.counter_value "c");
  Obs.Metrics.gauge "g" 2.5;
  Obs.Metrics.gauge "g" 7.5;
  Alcotest.(check (option (float 0.0))) "gauge keeps last" (Some 7.5)
    (Obs.Metrics.gauge_value "g")

(* Reading a series as the wrong kind raises instead of reading [None],
   which a caller would report as an absent (null) value. *)
let test_metrics_typed_reads () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Obs.Metrics.count "c";
  Obs.Metrics.gauge "g" 1.0;
  Obs.Metrics.observe "h" 1.0;
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: kind mismatch read without error" what
    | exception Invalid_argument _ -> ()
  in
  raises "histogram as counter" (fun () -> Obs.Metrics.counter_value "h");
  raises "counter as gauge" (fun () -> Obs.Metrics.gauge_value "c");
  raises "gauge as histogram" (fun () -> Obs.Metrics.histogram "g");
  (* another label set of a known name is still just an absent series *)
  Alcotest.(check (option int)) "other labels absent" None
    (Obs.Metrics.counter_value "c" ~labels:[ ("k", "v") ]);
  Alcotest.(check bool) "unknown name absent" true
    (Obs.Metrics.histogram "nope" = None)

let test_metrics_histogram () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  List.iter (Obs.Metrics.observe "h") [ 3.0; 1.0; 2.0 ];
  match Obs.Metrics.histogram "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count" 3 h.Obs.Metrics.count;
    Alcotest.(check (float 1e-12)) "sum" 6.0 h.Obs.Metrics.sum;
    Alcotest.(check (float 1e-12)) "min" 1.0 h.Obs.Metrics.min;
    Alcotest.(check (float 1e-12)) "max" 3.0 h.Obs.Metrics.max;
    Alcotest.(check (float 1e-12)) "last" 2.0 h.Obs.Metrics.last;
    Alcotest.(check (float 1e-12)) "mean" 2.0 (Obs.Metrics.mean h);
    Alcotest.(check (list (float 1e-12))) "samples in order"
      [ 3.0; 1.0; 2.0 ] h.Obs.Metrics.samples;
    Alcotest.(check int) "nothing dropped" 0 h.Obs.Metrics.dropped

let test_metrics_sample_cap () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let n = Obs.Metrics.max_samples + 10 in
  for i = 1 to n do
    Obs.Metrics.observe "capped" (float_of_int i)
  done;
  match Obs.Metrics.histogram "capped" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count exact past cap" n h.Obs.Metrics.count;
    Alcotest.(check int) "samples capped" Obs.Metrics.max_samples
      (List.length h.Obs.Metrics.samples);
    Alcotest.(check int) "dropped" 10 h.Obs.Metrics.dropped;
    Alcotest.(check (float 1e-12)) "max exact past cap" (float_of_int n)
      h.Obs.Metrics.max;
    Alcotest.(check (float 1e-6)) "sum exact past cap"
      (float_of_int (n * (n + 1) / 2))
      h.Obs.Metrics.sum

(* Regression: the histogram used to keep the *first* 4096 observations
   and drop the rest, so percentiles of a drifting stream described only
   its opening regime. With reservoir sampling, a 100k-observation ramp
   must yield percentiles near the true stream percentiles, and retain
   samples from the tail at all. *)
let test_metrics_reservoir_unbiased () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let n = 100_000 in
  for i = 1 to n do
    Obs.Metrics.observe "stream" (float_of_int i)
  done;
  match Obs.Metrics.histogram "stream" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    Alcotest.(check int) "count exact" n h.Obs.Metrics.count;
    Alcotest.(check int) "reservoir full" Obs.Metrics.max_samples
      (List.length h.Obs.Metrics.samples);
    Alcotest.(check int) "dropped" (n - Obs.Metrics.max_samples)
      h.Obs.Metrics.dropped;
    (* first-4096 retention would pin p50 at <= 4096 (4% of the stream);
       an unbiased reservoir of 4096 has p50 within ~800 of the true
       median at one sigma — 5000 is a >6-sigma band, and the seeded RNG
       makes the draw deterministic anyway *)
    let p50 = Obs.Metrics.percentile h 0.50 in
    let p99 = Obs.Metrics.percentile h 0.99 in
    Alcotest.(check bool) "p50 near the true median" true
      (Float.abs (p50 -. 50_000.0) < 5_000.0);
    Alcotest.(check bool) "p99 near the true p99" true
      (Float.abs (p99 -. 99_000.0) < 1_000.0);
    Alcotest.(check bool) "tail samples retained" true
      (List.exists (fun v -> v > 90_000.0) h.Obs.Metrics.samples)

(* The replacement RNG is seeded from the metric name: identical streams
   retain identical samples, run to run. *)
let test_metrics_reservoir_deterministic () =
  Obs.Metrics.set_enabled true;
  let run () =
    Obs.Metrics.reset ();
    for i = 1 to 20_000 do
      Obs.Metrics.observe "det" (float_of_int i)
    done;
    match Obs.Metrics.histogram "det" with
    | Some h -> h.Obs.Metrics.samples
    | None -> Alcotest.fail "histogram missing"
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "identical retained samples across runs" true (a = b)

let test_metrics_percentile_edges () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  List.iter (Obs.Metrics.observe "p") [ 30.0; 10.0; 40.0; 20.0 ];
  (match Obs.Metrics.histogram "p" with
   | None -> Alcotest.fail "histogram missing"
   | Some h ->
     Alcotest.(check (float 0.0)) "p0 is the min" 10.0
       (Obs.Metrics.percentile h 0.0);
     Alcotest.(check (float 0.0)) "p50 nearest-rank" 20.0
       (Obs.Metrics.percentile h 0.5);
     Alcotest.(check (float 0.0)) "p100 is the max" 40.0
       (Obs.Metrics.percentile h 1.0);
     (try
        ignore (Obs.Metrics.percentile h 1.5);
        Alcotest.fail "q outside [0,1] accepted"
      with Invalid_argument _ -> ()))

let test_metrics_percentile_degenerate () =
  (* an empty sample set (possible on a hand-built histogram, or one whose
     reservoir was emptied) yields nan, not an exception *)
  let empty =
    { Obs.Metrics.count = 0; sum = 0.0; min = Float.infinity;
      max = Float.neg_infinity; last = Float.nan; samples = []; dropped = 0 }
  in
  Alcotest.(check bool) "empty sample set is nan" true
    (Float.is_nan (Obs.Metrics.percentile empty 0.5));
  (* a single sample is every percentile *)
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Obs.Metrics.observe "single" 7.5;
  (match Obs.Metrics.histogram "single" with
   | None -> Alcotest.fail "histogram missing"
   | Some h ->
     List.iter
       (fun q ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "p%g of one sample" (q *. 100.0))
            7.5 (Obs.Metrics.percentile h q))
       [ 0.0; 0.5; 1.0 ];
     List.iter
       (fun q ->
          try
            ignore (Obs.Metrics.percentile h q);
            Alcotest.failf "q=%g accepted" q
          with Invalid_argument _ -> ())
       [ -0.01; 1.01; Float.nan ])

let test_metrics_labels_separate_series () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Obs.Metrics.count "solves" ~labels:[ ("precond", "mg") ];
  Obs.Metrics.count "solves" ~labels:[ ("precond", "jacobi") ] ~by:3;
  Obs.Metrics.count "solves";
  Alcotest.(check (option int)) "mg series" (Some 1)
    (Obs.Metrics.counter_value "solves" ~labels:[ ("precond", "mg") ]);
  Alcotest.(check (option int)) "jacobi series" (Some 3)
    (Obs.Metrics.counter_value "solves" ~labels:[ ("precond", "jacobi") ]);
  Alcotest.(check (option int)) "unlabelled series" (Some 1)
    (Obs.Metrics.counter_value "solves");
  Alcotest.(check int) "three distinct series" 3
    (List.length (Obs.Metrics.snapshot ()));
  (* label order never splits a series: recording under a permuted label
     list lands in the same canonical cell *)
  Obs.Metrics.gauge "pos" ~labels:[ ("x", "1"); ("y", "2") ] 1.0;
  Obs.Metrics.gauge "pos" ~labels:[ ("y", "2"); ("x", "1") ] 5.0;
  Alcotest.(check (option (float 0.0))) "permuted labels merge" (Some 5.0)
    (Obs.Metrics.gauge_value "pos" ~labels:[ ("x", "1"); ("y", "2") ]);
  (match
     List.find_opt (fun s -> s.Obs.Metrics.name = "pos")
       (Obs.Metrics.snapshot ())
   with
   | None -> Alcotest.fail "pos series missing from snapshot"
   | Some s ->
     Alcotest.(check (list (pair string string))) "labels canonicalized"
       [ ("x", "1"); ("y", "2") ] s.Obs.Metrics.labels);
  (* duplicate label keys are a programming error *)
  (try
     Obs.Metrics.count "dup" ~labels:[ ("k", "a"); ("k", "b") ];
     Alcotest.fail "duplicate label keys accepted"
   with Invalid_argument _ -> ());
  (* one type per metric name, across all label sets — the Prom exporter's
     single-TYPE-line invariant *)
  try
    Obs.Metrics.gauge "solves" ~labels:[ ("precond", "ssor") ] 1.0;
    Alcotest.fail "type change under a new label set accepted"
  with Invalid_argument _ -> ()

let test_metrics_disabled_noop () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled true)
    (fun () ->
       Obs.Metrics.count "x";
       Obs.Metrics.gauge "y" 1.0;
       Obs.Metrics.observe "z" 1.0;
       Alcotest.(check int) "registry untouched" 0
         (List.length (Obs.Metrics.snapshot ())))

(* --- log -------------------------------------------------------------------- *)

let test_log_retention () =
  Obs.Log.reset ();
  let seen = ref [] in
  Obs.Log.set_handler (Some (fun m -> seen := m :: !seen));
  Fun.protect
    ~finally:(fun () -> Obs.Log.set_handler (Some Obs.Log.default_handler))
    (fun () ->
       Obs.Log.warn "first";
       Obs.Log.warn "second";
       Alcotest.(check (list string)) "retained in order"
         [ "first"; "second" ] (Obs.Log.warnings ());
       Alcotest.(check (list string)) "handler saw both"
         [ "second"; "first" ] !seen;
       Alcotest.(check int) "none dropped" 0 (Obs.Log.dropped ()))

(* --- json ------------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [ ("s", Obs.Json.String "a \"quoted\" \\ line\nwith\ttabs");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.5e-3);
        ("whole", Obs.Json.Float 3.0);
        ("b", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ("l",
         Obs.Json.List
           [ Obs.Json.Int 1; Obs.Json.Obj [ ("k", Obs.Json.Bool false) ] ]) ]
  in
  List.iter
    (fun pretty ->
       match Obs.Json.of_string (Obs.Json.to_string ~pretty v) with
       | Ok v' ->
         if v' <> v then
           Alcotest.failf "round trip (pretty=%b) changed the value" pretty
       | Error e -> Alcotest.failf "round trip (pretty=%b): %s" pretty e)
    [ false; true ]

let test_json_parse_details () =
  (match Obs.Json.of_string {| {"u": "é😀", "e": []} |} with
   | Ok j ->
     Alcotest.(check (option string)) "escapes decode to UTF-8"
       (Some "\xc3\xa9\xf0\x9f\x98\x80")
       (Option.bind (Obs.Json.member "u" j) Obs.Json.to_string_opt)
   | Error e -> Alcotest.failf "parse: %s" e);
  (match Obs.Json.of_string "[1, 2" with
   | Ok _ -> Alcotest.fail "truncated input accepted"
   | Error _ -> ());
  (match Obs.Json.of_string "{} trailing" with
   | Ok _ -> Alcotest.fail "trailing garbage accepted"
   | Error _ -> ())

(* Regression (PR 5): non-finite floats used to print as [null], so a
   [Float nan] silently became [Null] across a round-trip — fatal for the
   checkpoint codec's bit-identical resume. They now print as string
   sentinels that [to_float] decodes back. *)
let test_json_nonfinite_floats () =
  Alcotest.(check string) "nan prints as sentinel" {|"nan"|}
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string) "inf prints as sentinel" {|"inf"|}
    (Obs.Json.to_string (Obs.Json.Float Float.infinity));
  Alcotest.(check string) "-inf prints as sentinel" {|"-inf"|}
    (Obs.Json.to_string (Obs.Json.Float Float.neg_infinity));
  List.iter
    (fun v ->
       let s = Obs.Json.to_string (Obs.Json.Float v) in
       match Obs.Json.of_string s with
       | Error e -> Alcotest.failf "sentinel %s does not parse: %s" s e
       | Ok j ->
         (match Obs.Json.to_float j with
          | None -> Alcotest.failf "sentinel %s does not decode" s
          | Some v' ->
            Alcotest.(check int64) ("round trip of " ^ s)
              (Int64.bits_of_float v) (Int64.bits_of_float v')))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Regression (PR 5): the old number scanner fed any number-ish character
   run to OCaml's lenient float parser, accepting non-JSON forms. *)
let test_json_strict_numbers () =
  List.iter
    (fun s ->
       match Obs.Json.of_string s with
       | Ok _ -> Alcotest.failf "non-JSON number %S accepted" s
       | Error _ -> ())
    [ "+1"; "1.e5"; ".5"; "01"; "1."; "-"; "--1"; "1e"; "1e+"; "0x10";
      "1_000"; "nan"; "infinity";
      (* beyond the float range: read as infinity, they would print back
         as the "inf" sentinel string, a different JSON value *)
      "1e999"; "-1e999"; String.make 400 '9' ];
  List.iter
    (fun (s, expect) ->
       match Obs.Json.of_string s with
       | Ok j ->
         if j <> expect then Alcotest.failf "number %S parsed wrong" s
       | Error e -> Alcotest.failf "valid number %S rejected: %s" s e)
    [ ("0", Obs.Json.Int 0); ("-0", Obs.Json.Int 0);
      ("10", Obs.Json.Int 10); ("-120", Obs.Json.Int (-120));
      ("0.5", Obs.Json.Float 0.5); ("1e5", Obs.Json.Float 1e5);
      ("1.25e-3", Obs.Json.Float 1.25e-3); ("2E+2", Obs.Json.Float 200.0);
      ("0.0", Obs.Json.Float 0.0); ("1e308", Obs.Json.Float 1e308);
      ("1e-999", Obs.Json.Float 0.0) ]

(* Every float — finite or not — must survive print-and-parse with its
   exact bit pattern, via [to_float] for the sentinel cases. *)
let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"json float round trip is bit-exact" ~count:500
    QCheck.float (fun v ->
        let s = Obs.Json.to_string (Obs.Json.Float v) in
        match Obs.Json.of_string s with
        | Error e -> QCheck.Test.fail_reportf "reparse of %s failed: %s" s e
        | Ok j ->
          (match Obs.Json.to_float j with
           | None -> QCheck.Test.fail_reportf "%s not float-decodable" s
           | Some v' ->
             Int64.bits_of_float v = Int64.bits_of_float v'
             (* -nan collapses to the canonical nan payload; that is fine
                because the writer side only ever produces "nan" *)
             || (Float.is_nan v && Float.is_nan v')))

(* --- report ----------------------------------------------------------------- *)

let test_report_structure () =
  Obs.Report.start ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Metrics.reset ())
    (fun () ->
       Obs.Trace.with_span "stage" (fun () -> Obs.Metrics.count "events");
       let j =
         Obs.Report.make ~command:"test"
           ~config:[ ("seed", Obs.Json.Int 1) ]
           ~sections:[ ("extra", Obs.Json.Bool true) ]
           ()
       in
       let keys = Obs.Json.keys j in
       List.iter
         (fun k ->
            if not (List.mem k keys) then Alcotest.failf "missing key %s" k)
         [ "schema_version"; "command"; "config"; "spans"; "metrics";
           "warnings"; "extra" ];
       (match Obs.Json.member "spans" j with
        | Some (Obs.Json.List [ span ]) ->
          Alcotest.(check (option string)) "span name" (Some "stage")
            (Option.bind (Obs.Json.member "name" span)
               Obs.Json.to_string_opt)
        | _ -> Alcotest.fail "expected exactly one root span");
       let path = Filename.temp_file "obs_report" ".json" in
       Fun.protect
         ~finally:(fun () -> Sys.remove path)
         (fun () ->
            Obs.Report.write_file path j;
            let ic = open_in_bin path in
            let text =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            match Obs.Json.of_string text with
            | Ok j' ->
              Alcotest.(check bool) "file round-trips" true (j = j')
            | Error e -> Alcotest.failf "written file unparsable: %s" e))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_atomic_write () =
  let path = Filename.temp_file "obs_atomic" ".json" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () ->
       Obs.Report.write_string_atomic path "first";
       Alcotest.(check string) "content written" "first" (read_file path);
       (* publication leaves no tmp file behind *)
       Alcotest.(check bool) "tmp removed" false
         (Sys.file_exists (path ^ ".tmp"));
       Obs.Report.write_string_atomic path "second";
       Alcotest.(check string) "overwrite" "second" (read_file path);
       (* an unwritable tmp location fails without touching the previous
          content *)
       (match
          Obs.Report.write_string_atomic
            (Filename.concat path "no-such-dir/f") "x"
        with
        | () -> Alcotest.fail "write into non-directory succeeded"
        | exception Sys_error _ -> ());
       Alcotest.(check string) "previous content intact" "second"
         (read_file path))

(* --- perfetto ---------------------------------------------------------------- *)

let test_perfetto_export_validates () =
  with_tracing @@ fun () ->
  Obs.Trace.with_span "a" (fun () ->
      Obs.Trace.add_metric "x" 1.5;
      Obs.Trace.with_span "b" (fun () -> ()));
  Obs.Trace.with_span "c" (fun () -> ());
  let j = Obs.Perfetto.of_trace () in
  (match Obs.Perfetto.validate j with
   | Error e -> Alcotest.failf "export invalid: %s" e
   | Ok stats ->
     Alcotest.(check int) "one event per span" 3 stats.Obs.Perfetto.events;
     Alcotest.(check bool) "at least the caller's track" true
       (stats.Obs.Perfetto.tids <> []));
  (* the file representation (print + reparse) must validate too, and the
     span metric must survive into the event args *)
  match Obs.Json.of_string (Obs.Json.to_string ~pretty:true j) with
  | Error e -> Alcotest.failf "export not reparsable: %s" e
  | Ok j' ->
    (match Obs.Perfetto.validate j' with
     | Error e -> Alcotest.failf "reparsed export invalid: %s" e
     | Ok _ -> ());
    let has_metric =
      match j' with
      | Obs.Json.List evs ->
        List.exists
          (fun ev ->
             match Obs.Json.member "args" ev with
             | Some args ->
               Option.bind (Obs.Json.member "x" args) Obs.Json.to_float
               = Some 1.5
             | None -> false)
          evs
      | _ -> false
    in
    Alcotest.(check bool) "span metric lands in args" true has_metric

let test_perfetto_write_file () =
  let path = Filename.temp_file "perfetto" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       with_tracing (fun () ->
           Obs.Trace.with_span "root" (fun () ->
               Obs.Trace.with_span "leaf" (fun () -> ()));
           Obs.Perfetto.write_file path);
       match Obs.Json.of_string (read_file path) with
       | Error e -> Alcotest.failf "written trace unparsable: %s" e
       | Ok j ->
         (match Obs.Perfetto.validate j with
          | Ok stats ->
            Alcotest.(check int) "events" 2 stats.Obs.Perfetto.events
          | Error e -> Alcotest.failf "written trace invalid: %s" e))

let test_perfetto_validate_rejects () =
  let ev ?(name = Obs.Json.String "s") ?(ph = Obs.Json.String "X")
      ?(ts = Obs.Json.Float 0.0) ?(dur = Obs.Json.Float 10.0)
      ?(tid = Obs.Json.Int 0) () =
    Obs.Json.Obj
      [ ("name", name); ("cat", Obs.Json.String "span"); ("ph", ph);
        ("ts", ts); ("dur", dur); ("pid", Obs.Json.Int 1); ("tid", tid) ]
  in
  let expect_error what j =
    match Obs.Perfetto.validate j with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  expect_error "non-array" (Obs.Json.Obj []);
  expect_error "non-X phase" (Obs.Json.List [ ev ~ph:(Obs.Json.String "B") () ]);
  expect_error "non-string name" (Obs.Json.List [ ev ~name:(Obs.Json.Int 3) () ]);
  expect_error "negative dur"
    (Obs.Json.List [ ev ~dur:(Obs.Json.Float (-1.0)) () ]);
  expect_error "non-finite ts"
    (Obs.Json.List [ ev ~ts:(Obs.Json.Float Float.nan) () ]);
  expect_error "missing tid"
    (Obs.Json.List
       [ Obs.Json.Obj
           [ ("name", Obs.Json.String "s"); ("ph", Obs.Json.String "X");
             ("ts", Obs.Json.Float 0.0); ("dur", Obs.Json.Float 1.0) ] ]);
  (* partial overlap on one tid is rejected; the same intervals on
     different tids are independent tracks and fine *)
  let overlap tid2 =
    Obs.Json.List
      [ ev ~ts:(Obs.Json.Float 0.0) ~dur:(Obs.Json.Float 10.0) ();
        ev ~ts:(Obs.Json.Float 5.0) ~dur:(Obs.Json.Float 10.0)
          ~tid:(Obs.Json.Int tid2) () ]
  in
  expect_error "partial overlap on one tid" (overlap 0);
  (match Obs.Perfetto.validate (overlap 1) with
   | Ok stats ->
     Alcotest.(check (list int)) "two tracks" [ 0; 1 ]
       stats.Obs.Perfetto.tids
   | Error e -> Alcotest.failf "cross-tid intervals rejected: %s" e);
  (* proper nesting and disjoint spans on one tid are fine in any order *)
  match
    Obs.Perfetto.validate
      (Obs.Json.List
         [ ev ~ts:(Obs.Json.Float 2.0) ~dur:(Obs.Json.Float 3.0) ();
           ev ~ts:(Obs.Json.Float 0.0) ~dur:(Obs.Json.Float 10.0) ();
           ev ~ts:(Obs.Json.Float 12.0) ~dur:(Obs.Json.Float 1.0) () ])
  with
  | Ok stats -> Alcotest.(check int) "nested accepted" 3 stats.Obs.Perfetto.events
  | Error e -> Alcotest.failf "proper nesting rejected: %s" e

(* --- prometheus export ------------------------------------------------------ *)

let test_prom_escaping_roundtrip () =
  List.iter
    (fun s ->
       match Obs.Prom.unescape_label_value (Obs.Prom.escape_label_value s) with
       | Some s' ->
         Alcotest.(check string)
           (Printf.sprintf "round trip of %S" s) s s'
       | None ->
         Alcotest.failf "escape of %S does not unescape" s)
    [ ""; "plain"; "has \"quotes\""; "back\\slash"; "new\nline";
      "\\\"\n"; "trailing\\"; "\"\"\""; "mix \\n of \"all\"\nthree" ];
  (* escaped forms are single-line (quotes survive, but always behind a
     backslash) — safe inside the exposition format's value quotes *)
  let esc = Obs.Prom.escape_label_value "a\"b\\c\nd" in
  Alcotest.(check string) "escaped form" "a\\\"b\\\\c\\nd" esc;
  Alcotest.(check bool) "no raw newline" false (String.contains esc '\n');
  (* dangling or unknown escapes do not decode *)
  List.iter
    (fun bad ->
       Alcotest.(check (option string))
         (Printf.sprintf "invalid escape %S" bad) None
         (Obs.Prom.unescape_label_value bad))
    [ "\\"; "a\\"; "\\x"; "\\t" ]

let prop_prom_escape_roundtrip =
  QCheck.Test.make ~name:"prom label escaping round trips" ~count:500
    QCheck.string (fun s ->
        Obs.Prom.unescape_label_value (Obs.Prom.escape_label_value s)
        = Some s)

let test_prom_sanitize_names () =
  Alcotest.(check string) "dots become underscores"
    "thermal_cg_iterations" (Obs.Prom.sanitize_name "thermal.cg.iterations");
  Alcotest.(check string) "colons survive in metric names" "a:b"
    (Obs.Prom.sanitize_name "a:b");
  Alcotest.(check string) "leading digit replaced" "_2x"
    (Obs.Prom.sanitize_name "2x");
  Alcotest.(check string) "empty name" "_" (Obs.Prom.sanitize_name "");
  Alcotest.(check string) "label names exclude colons" "a_b"
    (Obs.Prom.sanitize_label_name "a:b")

let test_prom_render () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Obs.Metrics.count "flow.solves" ~labels:[ ("precond", "mg") ] ~by:2;
  Obs.Metrics.count "flow.solves" ~labels:[ ("precond", "evil\"\\\n") ];
  Obs.Metrics.gauge "peak.rise" 3.5;
  List.iter (Obs.Metrics.observe "cg.iters") [ 10.0; 20.0; 30.0 ];
  let text = Obs.Prom.to_string () in
  let lines = String.split_on_char '\n' text in
  let has l = List.mem l lines in
  let count_type_lines name =
    List.length
      (List.filter
         (fun l -> l = Printf.sprintf "# TYPE %s counter" name
                   || l = Printf.sprintf "# TYPE %s gauge" name)
         lines)
  in
  Alcotest.(check bool) "labelled counter series" true
    (has "flow_solves{precond=\"mg\"} 2");
  Alcotest.(check bool) "escaped label value" true
    (has "flow_solves{precond=\"evil\\\"\\\\\\n\"} 1");
  Alcotest.(check int) "one TYPE line for flow_solves" 1
    (count_type_lines "flow_solves");
  Alcotest.(check bool) "gauge value" true (has "peak_rise 3.5");
  Alcotest.(check bool) "histogram count companion" true
    (has "cg_iters_count 3");
  Alcotest.(check bool) "histogram sum companion" true (has "cg_iters_sum 60");
  Alcotest.(check bool) "histogram median quantile" true
    (has "cg_iters{quantile=\"0.5\"} 20");
  Alcotest.(check bool) "ends with a newline" true
    (text <> "" && text.[String.length text - 1] = '\n')

(* --- ledger ------------------------------------------------------------------ *)

let test_ledger_roundtrip () =
  let path = Filename.temp_file "ledger" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
       Alcotest.(check bool) "missing file is an empty ledger" true
         (Obs.Ledger.load path = Ok []);
       let r1 =
         Obs.Ledger.make_record ~timestamp_s:1700000000.25
           ~config:[ ("precond", Obs.Json.String "mg") ]
           ~phases_ms:[ ("evaluate_ms", 12.5); ("total_ms", 0.1 +. 0.2) ]
           ~cg_iterations:53 ~peak_rise_k:17.625 ~plan_hash:"abc123"
           ~command:"optimize" ~fingerprint:"mesh=40x40x9|precond=mg"
           ~outcome:"ok" ~exit_code:0 ()
       in
       let r2 =
         Obs.Ledger.make_record ~timestamp_s:1700000001.0 ~error:"boom"
           ~command:"flow" ~fingerprint:"f" ~outcome:"error" ~exit_code:1 ()
       in
       Obs.Ledger.append ~path r1;
       Obs.Ledger.append ~path r2;
       match Obs.Ledger.load path with
       | Error e -> Alcotest.failf "load: %s" e
       | Ok records ->
         Alcotest.(check int) "two records, oldest first" 2
           (List.length records);
         let l1 = List.nth records 0 and l2 = List.nth records 1 in
         Alcotest.(check string) "command" "optimize"
           (Obs.Ledger.command l1);
         Alcotest.(check string) "fingerprint" "mesh=40x40x9|precond=mg"
           (Obs.Ledger.fingerprint l1);
         Alcotest.(check int) "exit code" 1 (Obs.Ledger.exit_code l2);
         Alcotest.(check string) "outcome" "error" (Obs.Ledger.outcome l2);
         (* the exact-float codec: 0.1 +. 0.2 survives bit-for-bit *)
         (match List.assoc_opt "total_ms" (Obs.Ledger.phases_ms l1) with
          | None -> Alcotest.fail "total_ms missing"
          | Some v ->
            Alcotest.(check int64) "float round trip is bit-exact"
              (Int64.bits_of_float (0.1 +. 0.2)) (Int64.bits_of_float v));
         (match List.assoc_opt "precond" (Obs.Ledger.config_fields l1) with
          | Some (Obs.Json.String "mg") -> ()
          | _ -> Alcotest.fail "config field lost"))

let test_ledger_rejects_malformed () =
  (* an invalid record never reaches the file *)
  (try
     ignore
       (Obs.Ledger.append ~path:"/nonexistent-dir/x.jsonl"
          (Obs.Json.Int 3));
     Alcotest.fail "non-object record accepted"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Obs.Ledger.append ~path:"/nonexistent-dir/x.jsonl"
          (Obs.Json.Obj [ ("schema_version", Obs.Json.Int 999) ]));
     Alcotest.fail "wrong schema version accepted"
   with Invalid_argument _ -> ());
  (* a corrupt line fails the whole load, with its line number *)
  let path = Filename.temp_file "ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Obs.Ledger.append ~path
         (Obs.Ledger.make_record ~command:"c" ~fingerprint:"f" ~outcome:"ok"
            ~exit_code:0 ());
       let oc = open_out_gen [ Open_append ] 0o644 path in
       output_string oc "{not json\n";
       close_out oc;
       match Obs.Ledger.load path with
       | Ok _ -> Alcotest.fail "corrupt line accepted"
       | Error msg ->
         let contains sub =
           let n = String.length sub and m = String.length msg in
           let rec at i = i + n <= m
                          && (String.sub msg i n = sub || at (i + 1)) in
           at 0
         in
         Alcotest.(check bool) "error names line 2" true (contains "line 2"))

let test_ledger_resolve_path () =
  let with_env value f =
    let old = Sys.getenv_opt Obs.Ledger.env_var in
    (match value with
     | Some v -> Unix.putenv Obs.Ledger.env_var v
     | None -> Unix.putenv Obs.Ledger.env_var "");
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv Obs.Ledger.env_var (Option.value ~default:"" old))
      f
  in
  with_env None (fun () ->
      Alcotest.(check (option string)) "default"
        (Some Obs.Ledger.default_path)
        (Obs.Ledger.resolve_path ());
      Alcotest.(check (option string)) "explicit path wins" (Some "x.jsonl")
        (Obs.Ledger.resolve_path ~path:"x.jsonl" ());
      Alcotest.(check (option string)) "explicit none disables" None
        (Obs.Ledger.resolve_path ~path:"none" ()));
  with_env (Some "env.jsonl") (fun () ->
      Alcotest.(check (option string)) "env beats default"
        (Some "env.jsonl")
        (Obs.Ledger.resolve_path ());
      Alcotest.(check (option string)) "explicit beats env" (Some "x.jsonl")
        (Obs.Ledger.resolve_path ~path:"x.jsonl" ()));
  with_env (Some "none") (fun () ->
      Alcotest.(check (option string)) "env none disables" None
        (Obs.Ledger.resolve_path ()))

(* --- gate ----------------------------------------------------------------- *)

let check_float ?(eps = 1e-12) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let test_gate_band () =
  (* a normal baseline: multiplicative threshold plus the measured IQR *)
  check_float "normal band" 121.5
    (Obs.Gate.allowed_ms ~threshold:0.15 ~median:100.0 ~iqr:6.5);
  (* the band never goes below the absolute floor *)
  check_float "floor value" 1.0 Obs.Gate.absolute_floor_ms

let test_gate_zero_median_floor () =
  (* regression: a 0.0 ms baseline median (timer resolution, skipped
     phase) made the allowed band exactly 0.0, so any measurable fresh
     time "regressed"; and a 0.2 ms median gated at 0.23 ms — pure
     scheduler noise. Both are now held to the 1.0 ms floor. *)
  check_float "zero median, zero IQR -> floor" Obs.Gate.absolute_floor_ms
    (Obs.Gate.allowed_ms ~threshold:0.15 ~median:0.0 ~iqr:0.0);
  check_float "near-zero median -> floor" Obs.Gate.absolute_floor_ms
    (Obs.Gate.allowed_ms ~threshold:0.15 ~median:0.2 ~iqr:0.0);
  (* zero median with a real IQR above the floor keeps the IQR headroom *)
  check_float "zero median, large IQR" 2.5
    (Obs.Gate.allowed_ms ~threshold:0.15 ~median:0.0 ~iqr:2.5);
  (* just above the floor the multiplicative band takes over *)
  Alcotest.(check bool) "band grows past the floor" true
    (Obs.Gate.allowed_ms ~threshold:0.15 ~median:2.0 ~iqr:0.0
     > Obs.Gate.absolute_floor_ms)

let () =
  Alcotest.run "obs"
    [ ("trace",
       [ Alcotest.test_case "disabled is transparent" `Quick
           test_trace_disabled_is_transparent;
         Alcotest.test_case "nesting" `Quick test_trace_nesting;
         Alcotest.test_case "allocation is the span's own domain's" `Quick
           test_trace_alloc_domain_local;
         Alcotest.test_case "timing monotone" `Quick
           test_trace_timing_monotone;
         Alcotest.test_case "exception safe" `Quick
           test_trace_exception_safe;
         Alcotest.test_case "reparent abandoned frames" `Quick
           test_trace_reparent_abandoned ]);
      ("clock",
       [ Alcotest.test_case "ratchet" `Quick test_clock_ratchet;
         Alcotest.test_case "spans survive a backwards step" `Quick
           test_clock_spans_survive_backstep ]);
      ("metrics",
       [ Alcotest.test_case "counters and gauges" `Quick
           test_metrics_counters;
         Alcotest.test_case "histogram" `Quick test_metrics_histogram;
         Alcotest.test_case "typed reads reject a kind mismatch" `Quick
           test_metrics_typed_reads;
         Alcotest.test_case "sample cap" `Quick test_metrics_sample_cap;
         Alcotest.test_case "reservoir unbiased at 100k" `Quick
           test_metrics_reservoir_unbiased;
         Alcotest.test_case "reservoir deterministic" `Quick
           test_metrics_reservoir_deterministic;
         Alcotest.test_case "percentile edges" `Quick
           test_metrics_percentile_edges;
         Alcotest.test_case "percentile degenerate inputs" `Quick
           test_metrics_percentile_degenerate;
         Alcotest.test_case "labelled series" `Quick
           test_metrics_labels_separate_series;
         Alcotest.test_case "disabled no-op" `Quick
           test_metrics_disabled_noop ]);
      ("log", [ Alcotest.test_case "retention" `Quick test_log_retention ]);
      ("json",
       [ Alcotest.test_case "round trip" `Quick test_json_roundtrip;
         Alcotest.test_case "parser details" `Quick test_json_parse_details;
         Alcotest.test_case "non-finite floats" `Quick
           test_json_nonfinite_floats;
         Alcotest.test_case "strict numbers" `Quick test_json_strict_numbers;
         QCheck_alcotest.to_alcotest prop_json_float_roundtrip ]);
      ("report",
       [ Alcotest.test_case "structure and file round-trip" `Quick
           test_report_structure;
         Alcotest.test_case "atomic publication" `Quick
           test_atomic_write ]);
      ("perfetto",
       [ Alcotest.test_case "export validates" `Quick
           test_perfetto_export_validates;
         Alcotest.test_case "write file" `Quick test_perfetto_write_file;
         Alcotest.test_case "validator rejects malformed traces" `Quick
           test_perfetto_validate_rejects ]);
      ("prom",
       [ Alcotest.test_case "label escaping round trips" `Quick
           test_prom_escaping_roundtrip;
         QCheck_alcotest.to_alcotest prop_prom_escape_roundtrip;
         Alcotest.test_case "name sanitization" `Quick
           test_prom_sanitize_names;
         Alcotest.test_case "text exposition rendering" `Quick
           test_prom_render ]);
      ("ledger",
       [ Alcotest.test_case "append/load round trip" `Quick
           test_ledger_roundtrip;
         Alcotest.test_case "rejects malformed records and lines" `Quick
           test_ledger_rejects_malformed;
         Alcotest.test_case "resolve_path precedence" `Quick
           test_ledger_resolve_path ]);
      ("gate",
       [ Alcotest.test_case "band arithmetic" `Quick test_gate_band;
         Alcotest.test_case "zero-median floor" `Quick
           test_gate_zero_median_floor ]) ]
