(* Tests for the serve subsystem: backoff policy determinism and bounds,
   the bounded queue's fingerprint-grouping pop, the JSONL request
   codec, and an in-process server end-to-end exercising fault
   isolation, deadlines, backpressure and retry. *)

module Policy = Serve.Policy
module Queue = Serve.Queue
module Job = Serve.Job
module Server = Serve.Server

(* --- policy ---------------------------------------------------------------- *)

let job_id_gen =
  QCheck.Gen.map (Printf.sprintf "job-%d") QCheck.Gen.(int_bound 9999)

(* Determinism and bounds: for any (job, attempt), the delay is a pure
   function of the policy, and the jitter never escapes
   [(1-j) * capped, (1+j) * capped]. *)
let prop_delay_deterministic_and_bounded =
  QCheck.Test.make ~name:"backoff delay deterministic and bounded" ~count:200
    QCheck.(
      pair (make job_id_gen ~print:(fun s -> s)) (int_range 1 12))
    (fun (job_id, attempt) ->
       let p = Policy.default in
       let d1 = Policy.delay_ms p ~job_id ~attempt in
       let d2 = Policy.delay_ms p ~job_id ~attempt in
       let capped =
         Float.min
           (p.Policy.base_delay_ms
            *. (p.Policy.multiplier ** float_of_int (attempt - 1)))
           p.Policy.max_delay_ms
       in
       d1 = d2
       && d1 >= capped *. (1.0 -. p.Policy.jitter)
       && d1 <= capped *. (1.0 +. p.Policy.jitter))

(* Retry eligibility never exceeds the budget and never applies to
   validation errors, whatever the attempt number. *)
let prop_never_retries_validation =
  QCheck.Test.make ~name:"validation errors never retried" ~count:100
    QCheck.(int_range 1 10)
    (fun attempt ->
       let p = Policy.default in
       let transient =
         Robust.Error.Solver_diverged
           { residual = 1.0; iterations = 1; rungs = [ "cg" ] }
       in
       let validation =
         Robust.Error.Invariant_violation { check = "c"; detail = "d" }
       in
       let deadline =
         Robust.Error.Deadline_exceeded
           { job_id = "j"; elapsed_ms = 2.0; deadline_ms = 1.0 }
       in
       (not (Policy.should_retry p validation ~attempt))
       && (not (Policy.should_retry p deadline ~attempt))
       && Policy.should_retry p transient ~attempt
          = (attempt <= p.Policy.max_retries))

let test_policy_retryable () =
  let sd =
    Robust.Error.Solver_diverged
      { residual = 1.0; iterations = 0; rungs = [] }
  in
  let wf = Robust.Error.Worker_failed { detail = "" } in
  let iv = Robust.Error.Invariant_violation { check = ""; detail = "" } in
  let cc = Robust.Error.Checkpoint_corrupt { path = ""; detail = "" } in
  let qf = Robust.Error.Queue_full { job_id = ""; depth = 1; capacity = 1 } in
  let de =
    Robust.Error.Deadline_exceeded
      { job_id = ""; elapsed_ms = 0.0; deadline_ms = 0.0 }
  in
  let check name want e =
    Alcotest.(check bool) name want (Policy.retryable e)
  in
  check "solver_diverged retryable" true sd;
  check "worker_failed retryable" true wf;
  check "invariant not retryable" false iv;
  check "checkpoint not retryable" false cc;
  check "queue_full not retryable" false qf;
  check "deadline not retryable" false de

let test_policy_schedule () =
  let p = { Policy.default with Policy.jitter = 0.0; seed = 7 } in
  let s = Policy.schedule p ~job_id:"j" in
  Alcotest.(check int) "one delay per retry" p.Policy.max_retries
    (List.length s);
  (* without jitter the schedule is the pure geometric ramp *)
  List.iteri
    (fun i d ->
       let want =
         Float.min
           (p.Policy.base_delay_ms
            *. (p.Policy.multiplier ** float_of_int i))
           p.Policy.max_delay_ms
       in
       Alcotest.(check (float 1e-9)) (Printf.sprintf "delay %d" i) want d)
    s;
  (match Policy.delay_ms p ~job_id:"j" ~attempt:0 with
   | _ -> Alcotest.fail "attempt 0 accepted"
   | exception Invalid_argument _ -> ());
  (* the cap engages for large attempts *)
  Alcotest.(check (float 1e-9)) "cap engages" p.Policy.max_delay_ms
    (Policy.delay_ms p ~job_id:"j" ~attempt:20)

(* --- queue ----------------------------------------------------------------- *)

let test_queue_bounds () =
  (match Queue.create ~capacity:0 with
   | _ -> Alcotest.fail "capacity 0 accepted"
   | exception Invalid_argument _ -> ());
  let q = Queue.create ~capacity:2 in
  Alcotest.(check bool) "empty at start" true (Queue.is_empty q);
  Alcotest.(check bool) "push 1" true (Queue.try_push q "a");
  Alcotest.(check bool) "push 2" true (Queue.try_push q "b");
  Alcotest.(check bool) "push refused at capacity" false
    (Queue.try_push q "c");
  Alcotest.(check int) "depth" 2 (Queue.depth q);
  ignore (Queue.pop_batch q ~key:(fun s -> s));
  Alcotest.(check bool) "slot freed after pop" true (Queue.try_push q "d")

let test_queue_pop_groups_by_key () =
  let q = Queue.create ~capacity:16 in
  (* interleaved keys: the batch must collect ALL same-key items, not
     just a contiguous prefix, and preserve arrival order *)
  List.iter
    (fun x -> Alcotest.(check bool) "push" true (Queue.try_push q x))
    [ ("x", 1); ("y", 2); ("x", 3); ("z", 4); ("x", 5) ];
  let batch = Queue.pop_batch q ~key:fst in
  Alcotest.(check (list (pair string int)))
    "first batch = every x, arrival order"
    [ ("x", 1); ("x", 3); ("x", 5) ]
    batch;
  Alcotest.(check int) "rest remain" 2 (Queue.depth q);
  Alcotest.(check (list (pair string int)))
    "second batch = the y" [ ("y", 2) ]
    (Queue.pop_batch q ~key:fst);
  Alcotest.(check (list (pair string int)))
    "third batch = the z" [ ("z", 4) ]
    (Queue.pop_batch q ~key:fst);
  Alcotest.(check (list (pair string int))) "empty pops empty" []
    (Queue.pop_batch q ~key:fst)

(* --- request codec --------------------------------------------------------- *)

let parse_ok line =
  match Job.request_of_line line with
  | Ok r -> r
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_request_roundtrip () =
  let r =
    parse_ok
      {|{"id":"j1","test_set":"concentrated","technique":"hw","seed":7,
         "cycles":321,"utilization":0.7,"precond":"mg","guide":"gradient",
         "overhead":0.3,"rows":3,"deadline_ms":1500,"max_retries":1,
         "faults":"nan_power"}|}
  in
  Alcotest.(check string) "id" "j1" r.Job.id;
  Alcotest.(check string) "test_set" "concentrated" r.Job.test_set;
  Alcotest.(check int) "seed" 7 r.Job.seed;
  Alcotest.(check (option int)) "rows" (Some 3) r.Job.rows;
  Alcotest.(check (option int)) "max_retries" (Some 1) r.Job.max_retries;
  Alcotest.(check int) "faults parsed" 1 (List.length r.Job.faults);
  (* encode, reparse: the codec round-trips to an equal request *)
  let r2 =
    match Job.request_of_json (Job.request_to_json r) with
    | Ok r2 -> r2
    | Error msg -> Alcotest.failf "reparse failed: %s" msg
  in
  Alcotest.(check bool) "round trip equal" true (r = r2);
  (* defaults: a minimal request carries the CLI's defaults *)
  let d = parse_ok {|{"id":"d"}|} in
  Alcotest.(check string) "default test_set" "small" d.Job.test_set;
  Alcotest.(check int) "default cycles" 1000 d.Job.cycles;
  Alcotest.(check (option int)) "no rows" None d.Job.rows;
  Alcotest.(check (option Alcotest.(float 0.0))) "no deadline" None
    d.Job.deadline_ms

let test_request_validation () =
  let reject name line =
    match Job.request_of_line line with
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error _ -> ()
  in
  reject "missing id" {|{"test_set":"small"}|};
  reject "empty id" {|{"id":"  "}|};
  reject "not an object" {|[1,2]|};
  reject "unparseable" {|{"id":|};
  reject "unknown technique" {|{"id":"x","technique":"warp"}|};
  reject "unknown test_set" {|{"id":"x","test_set":"huge"}|};
  reject "bad utilization" {|{"id":"x","utilization":1.5}|};
  reject "bad cycles" {|{"id":"x","cycles":0}|};
  reject "bad deadline" {|{"id":"x","deadline_ms":-5}|};
  reject "bad rows" {|{"id":"x","rows":0}|};
  reject "bad faults" {|{"id":"x","faults":"warp_core"}|};
  reject "non-string id" {|{"id":7}|};
  reject "unknown guide" {|{"id":"x","guide":"psychic"}|};
  reject "retired jacobi precond" {|{"id":"x","precond":"jacobi"}|};
  reject "retired ssor precond" {|{"id":"x","precond":"ssor"}|};
  (* a misspelt or retired field is an admission error naming it, never
     a silent default *)
  let unknown_field line want =
    match Job.request_of_line line with
    | Ok _ -> Alcotest.failf "unknown field accepted: %s" line
    | Error msg -> Alcotest.(check string) "error names the field" want msg
  in
  unknown_field {|{"id":"typo","cycles":200,"technique":"eri","overheaad":0.4}|}
    {|typo: unknown field "overheaad"|};
  unknown_field {|{"id":"s","screen":"auto"}|} {|s: unknown field "screen"|};
  unknown_field {|{"id":"s","screen":"exact"}|} {|s: unknown field "screen"|}

let test_request_guide_field () =
  let d = parse_ok {|{"id":"d"}|} in
  Alcotest.(check string) "default guide" "peak" d.Job.guide_name;
  Alcotest.(check bool) "default guide choice" true
    (d.Job.guide = Postplace.Flow.Guide_peak);
  let g = parse_ok {|{"id":"g","guide":"gradient"}|} in
  Alcotest.(check string) "gradient guide" "gradient" g.Job.guide_name;
  Alcotest.(check bool) "gradient guide choice" true
    (g.Job.guide = Postplace.Flow.Guide_gradient);
  (* encode/reparse keeps the guide *)
  (match Job.request_of_json (Job.request_to_json g) with
   | Ok g2 -> Alcotest.(check bool) "guide round trips" true (g = g2)
   | Error msg -> Alcotest.failf "reparse failed: %s" msg);
  (* the guide is a run option of the optimizer, not part of the
     prepared problem: it must neither change the problem fingerprint
     nor split a batch *)
  Alcotest.(check string) "guide does not change the problem fingerprint"
    (Job.fingerprint d) (Job.fingerprint g);
  Alcotest.(check (list string)) "the problem identity and nothing else"
    [ "mesh"; "precond"; "seed"; "util"; "set"; "cycles" ]
    (List.map
       (fun kv -> List.hd (String.split_on_char '=' kv))
       (String.split_on_char '|' (Job.fingerprint g)))

let test_fingerprint_groups_configs () =
  let a = parse_ok {|{"id":"a","cycles":200}|} in
  let b = parse_ok {|{"id":"b","cycles":200,"technique":"hw","deadline_ms":9}|} in
  let c = parse_ok {|{"id":"c","cycles":201}|} in
  (* technique / deadline / retries do not affect the prepared flow, so
     they must not split a batch; cycles does *)
  Alcotest.(check string) "same flow, same fingerprint" (Job.fingerprint a)
    (Job.fingerprint b);
  Alcotest.(check bool) "different cycles, different fingerprint" true
    (Job.fingerprint a <> Job.fingerprint c);
  (* precond selects nothing: a request naming it batches with one that
     does not, and the fingerprint keeps the precond=mg older ledger
     records carry *)
  let m = parse_ok {|{"id":"m","cycles":200,"precond":"mg"}|} in
  Alcotest.(check string) "precond splits nothing" (Job.fingerprint a)
    (Job.fingerprint m);
  Alcotest.(check bool) "fingerprint keeps precond=mg" true
    (List.mem "precond=mg" (String.split_on_char '|' (Job.fingerprint a)))

(* Mutated request lines: a full request with one enum field set to any
   name it accepts, the retired precond name "jacobi", the empty string
   or junk, then {!Mutate.gen}. Decoding must never raise, and whatever
   it accepts must survive an encode, print and decode unchanged. *)
let fuzz_line =
  let open QCheck.Gen in
  let junk = [ "fft"; "jacobi"; ""; {|\u0000x\u00ff|} ] in
  let enums =
    [ ("test_set", Postplace.Experiment.test_set_names);
      ("technique", Job.technique_names);
      ("precond", [ "auto"; "mg" ]);
      ("guide", Postplace.Flow.guide_names) ]
  in
  let full field value =
    String.concat ","
      (List.map
         (fun (k, v) ->
            Printf.sprintf "\"%s\":%s" k
              (if k = field then "\"" ^ value ^ "\"" else v))
         [ ("id", {|"fz"|}); ("test_set", {|"small"|});
           ("technique", {|"optimize"|}); ("seed", "3"); ("cycles", "200");
           ("utilization", "0.7"); ("precond", {|"mg"|});
           ("guide", {|"peak"|});
           ("overhead", "0.3"); ("rows", "2"); ("deadline_ms", "1500");
           ("max_retries", "1"); ("faults", {|"cg_stall:2"|}) ])
  in
  let* field, names = oneofl enums in
  let* value = oneofl (names @ junk) in
  Mutate.gen
    ~inserts:
      [ ","; "\""; "{"; "}"; "["; ":"; "null"; "1e999"; "-0"; "\\u0000";
        "\\"; {|"seed":1,|} ]
    ("{" ^ full field value ^ "}")

let prop_request_codec_fuzz =
  QCheck.Test.make ~name:"request codec survives mutated lines" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") fuzz_line)
    (fun line ->
       match Job.request_of_line line with
       | exception e ->
         QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
       | Error _ -> true
       | Ok r ->
         (match
            Job.request_of_line (Obs.Json.to_string (Job.request_to_json r))
          with
          | Ok r2 when r2 = r -> true
          | Ok _ -> QCheck.Test.fail_report "round trip changed the request"
          | Error msg -> QCheck.Test.fail_reportf "re-decode failed: %s" msg))

(* --- server end-to-end ----------------------------------------------------- *)

let test_config =
  { Server.default_config with Server.handle_sigterm = false }

let run_server ?(config = test_config) lines =
  let inp = Filename.temp_file "serve_in" ".jsonl" in
  let outp = Filename.temp_file "serve_out" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove inp with Sys_error _ -> ());
      try Sys.remove outp with Sys_error _ -> ())
    (fun () ->
       let oc = open_out inp in
       List.iter (fun l -> output_string oc (l ^ "\n")) lines;
       close_out oc;
       let fd = Unix.openfile inp [ Unix.O_RDONLY ] 0 in
       let out = open_out outp in
       let summary =
         Fun.protect
           ~finally:(fun () ->
             close_out out;
             Unix.close fd)
           (fun () -> Server.run ~config ~input:fd ~output:out ())
       in
       let ic = open_in outp in
       let rec read acc =
         match input_line ic with
         | l -> read (l :: acc)
         | exception End_of_file -> List.rev acc
       in
       let raw = read [] in
       close_in ic;
       let responses =
         List.map
           (fun l ->
              match Obs.Json.of_string l with
              | Ok j -> j
              | Error msg -> Alcotest.failf "bad response line %S: %s" l msg)
           raw
       in
       (summary, responses))

let find_response responses id =
  match
    List.find_opt
      (fun r ->
         Option.bind (Obs.Json.member "id" r) Obs.Json.to_string_opt
         = Some id)
      responses
  with
  | Some r -> r
  | None -> Alcotest.failf "no response for %s" id

let str_field r name =
  match Option.bind (Obs.Json.member name r) Obs.Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response missing %s" name

let int_field r name =
  match Option.bind (Obs.Json.member name r) Obs.Json.to_int with
  | Some v -> v
  | None -> Alcotest.failf "response missing %s" name

let outcome r = str_field r "outcome"

(* one small-benchmark job line; cheap enough to run several per test *)
let job ?(extra = "") id = Printf.sprintf {|{"id":"%s","cycles":150%s}|} id extra

(* Fault isolation is THE serve contract: adding a fault-armed job to a
   batch leaves every other job's deterministic result bit-identical,
   and the armed fault degrades exactly the one job that carried it. *)
let test_fault_isolation () =
  let clean =
    [ job "a1"; job ~extra:{|,"technique":"hw"|} "a2";
      job ~extra:{|,"technique":"default"|} "a3" ]
  in
  let s0, r0 = run_server clean in
  Alcotest.(check int) "clean run all ok" 3 s0.Server.succeeded;
  (* same file plus one poisoned batch mate *)
  let s1, r1 =
    run_server (clean @ [ job ~extra:{|,"faults":"nan_power"|} "bad" ])
  in
  Alcotest.(check int) "exactly one failure" 1 s1.Server.failed;
  Alcotest.(check int) "others still ok" 3 s1.Server.succeeded;
  let bad = find_response r1 "bad" in
  Alcotest.(check string) "poisoned job failed" "failed" (outcome bad);
  Alcotest.(check int) "invariant exit class" 11 (int_field bad "exit_code");
  (* the three clean jobs' result payloads are bit-identical across runs *)
  let mates_identical ~behind run =
    List.iter
      (fun id ->
         let result run =
           match Obs.Json.member "result" (find_response run id) with
           | Some j -> Obs.Json.to_string j
           | None -> Alcotest.failf "%s has no result" id
         in
         Alcotest.(check string)
           (Printf.sprintf "%s bit-identical %s" id behind)
           (result r0) (result run))
      [ "a1"; "a2"; "a3" ]
  in
  mates_identical ~behind:"with poisoned mate" r1;
  (* all four shared one prepared flow: the fingerprints agree and the
     whole file was one batch *)
  Alcotest.(check int) "one batch" 1 s1.Server.batches;
  (* a faulted job that leads the batch pays the flow-cache miss, and
     prepares its flow while its fault is armed: a stalled CG recovered
     by its cold-Jacobi retry solves the base by another path, and a
     fault aimed at the pool leaves it alone. Either way its mates get
     the base a clean batch caches *)
  List.iter
    (fun fault ->
       let s2, r2 =
         run_server
           (job ~extra:(Printf.sprintf {|,"faults":"%s"|} fault) "lead"
            :: clean)
       in
       Alcotest.(check int) (fault ^ " leader shares the batch") 1
         s2.Server.batches;
       mates_identical ~behind:(Printf.sprintf "behind a %s leader" fault) r2)
    [ "cg_stall"; "kill_worker" ]

(* The guide is a run option of the optimizer, not part of the problem:
   optimize jobs that differ only in guide share one batch and one
   prepared flow, and each still runs its own guide — its result is the
   one it gets when served alone. *)
let test_guides_share_flow () =
  let opt guide id =
    job ~extra:(Printf.sprintf {|,"technique":"optimize","guide":"%s"|} guide)
      id
  in
  let misses () =
    Option.value ~default:0
      (Obs.Metrics.counter_value "serve.flow_cache.misses")
  in
  let m0 = misses () in
  let s, r = run_server [ opt "peak" "p"; opt "gradient" "g" ] in
  Alcotest.(check int) "one batch" 1 s.Server.batches;
  Alcotest.(check int) "one prepared flow" 1 (misses () - m0);
  let result run id =
    match Obs.Json.member "result" (find_response run id) with
    | Some j -> j
    | None -> Alcotest.failf "%s has no result" id
  in
  List.iter
    (fun (guide, id) ->
       let _, alone = run_server [ opt guide id ] in
       Alcotest.(check string) (id ^ ": as if served alone")
         (Obs.Json.to_string (result alone id))
         (Obs.Json.to_string (result r id)))
    [ ("peak", "p"); ("gradient", "g") ];
  let adjoints id =
    Option.bind (Obs.Json.member "adjoint_evaluations" (result r id))
      Obs.Json.to_int
  in
  Alcotest.(check (option int)) "the peak guide runs no adjoint" (Some 0)
    (adjoints "p");
  Alcotest.(check bool) "the gradient guide runs its adjoints" true
    (Option.value ~default:0 (adjoints "g") > 0)

let test_deadline_exceeded () =
  let s, r =
    run_server [ job "fast"; job ~extra:{|,"deadline_ms":0.5|} "slow" ]
  in
  Alcotest.(check int) "one deadline" 1 s.Server.deadline_exceeded;
  Alcotest.(check int) "other ok" 1 s.Server.succeeded;
  let slow = find_response r "slow" in
  Alcotest.(check string) "outcome" "deadline_exceeded" (outcome slow);
  Alcotest.(check int) "exit class 15" 15 (int_field slow "exit_code");
  Alcotest.(check int) "deadline not retried" 1 (int_field slow "attempts")

let test_backpressure () =
  let config = { test_config with Server.queue_capacity = 1 } in
  let s, r = run_server ~config [ job "q1"; job "q2"; job "q3" ] in
  Alcotest.(check int) "one admitted" 1 s.Server.accepted;
  Alcotest.(check int) "two rejected" 2 s.Server.rejected;
  Alcotest.(check int) "admitted one ran" 1 s.Server.succeeded;
  let q2 = find_response r "q2" in
  Alcotest.(check string) "rejected outcome" "rejected" (outcome q2);
  Alcotest.(check int) "queue-full exit class" 14 (int_field q2 "exit_code")

(* A transient fault (stalled CG) on the first attempt: the retry runs
   clean and succeeds, and the response records both attempts. *)
let test_retry_recovers_transient () =
  let config =
    { test_config with
      Server.policy =
        { Policy.default with Policy.base_delay_ms = 1.0; max_delay_ms = 2.0 }
    }
  in
  let s, r =
    run_server ~config
      [ job ~extra:{|,"faults":"cg_stall:8","max_retries":2|} "flaky" ]
  in
  Alcotest.(check int) "recovered" 1 s.Server.succeeded;
  Alcotest.(check int) "one retry spent" 1 s.Server.retries;
  let flaky = find_response r "flaky" in
  Alcotest.(check string) "outcome ok" "ok" (outcome flaky);
  Alcotest.(check int) "second attempt won" 2 (int_field flaky "attempts");
  (* with no retry budget the same fault is a structured failure *)
  let s2, r2 =
    run_server ~config
      [ job ~extra:{|,"faults":"cg_stall:8","max_retries":0|} "doomed" ]
  in
  Alcotest.(check int) "no budget, failed" 1 s2.Server.failed;
  Alcotest.(check int) "solver exit class" 10
    (int_field (find_response r2 "doomed") "exit_code")

(* A utilization the legalizer cannot honour is a property of the
   request, not a transient: the job fails as an invariant violation
   (exit class 11) on its first attempt, and its batch mate still
   runs. *)
let test_legalize_overflow_not_retried () =
  let s, r =
    run_server
      [ job "fits";
        {|{"id":"full","cycles":50,"technique":"default","overhead":0.0,"utilization":1.0}|} ]
  in
  Alcotest.(check int) "one failed" 1 s.Server.failed;
  Alcotest.(check int) "no retry" 0 s.Server.retries;
  Alcotest.(check int) "the other ok" 1 s.Server.succeeded;
  let full = find_response r "full" in
  Alcotest.(check string) "outcome" "failed" (outcome full);
  Alcotest.(check int) "invariant exit class" 11 (int_field full "exit_code");
  Alcotest.(check int) "one attempt" 1 (int_field full "attempts")

let test_invalid_lines_and_summary () =
  let s, r =
    run_server
      [ {|{"id":"ok1","cycles":150}|}; {|{"technique":"eri"}|}; "{nope" ]
  in
  Alcotest.(check int) "two invalid" 2 s.Server.invalid;
  Alcotest.(check int) "one ok" 1 s.Server.succeeded;
  Alcotest.(check int) "one response per input line" 3 (List.length r);
  (* invalid lines answer with a synthetic line-N id and exit class 2 *)
  let inv = find_response r "line-2" in
  Alcotest.(check string) "invalid outcome" "invalid" (outcome inv);
  Alcotest.(check int) "invalid exit class" 2 (int_field inv "exit_code");
  (* summary_json mirrors the summary record *)
  let j = Server.summary_json s in
  Alcotest.(check (option int)) "summary json invalid" (Some 2)
    (Option.bind (Obs.Json.member "invalid" j) Obs.Json.to_int)

(* Per-job ledger records: one per request, job_id set, filterable. *)
let test_per_job_ledger () =
  let ledger = Filename.temp_file "serve_ledger" ".jsonl" in
  Sys.remove ledger;
  Fun.protect
    ~finally:(fun () -> try Sys.remove ledger with Sys_error _ -> ())
    (fun () ->
       let config = { test_config with Server.ledger = Some ledger } in
       let s, _ =
         run_server ~config
           [ job "l1"; job ~extra:{|,"faults":"nan_power"|} "l2" ]
       in
       Alcotest.(check int) "one ok one failed" 1 s.Server.succeeded;
       let records =
         match Obs.Ledger.load ledger with
         | Ok r -> r
         | Error msg -> Alcotest.failf "ledger invalid: %s" msg
       in
       Alcotest.(check int) "one record per job" 2 (List.length records);
       List.iter
         (fun r ->
            Alcotest.(check string) "command" "serve.job"
              (Obs.Ledger.command r))
         records;
       let ids = List.filter_map Obs.Ledger.job_id records in
       Alcotest.(check (list string)) "job ids recorded" [ "l1"; "l2" ] ids;
       let l2 =
         List.find (fun r -> Obs.Ledger.job_id r = Some "l2") records
       in
       Alcotest.(check string) "failure recorded" "failed"
         (Obs.Ledger.outcome l2);
       Alcotest.(check int) "exit class recorded" 11
         (Obs.Ledger.exit_code l2))

let () =
  Alcotest.run "serve"
    [ ("policy",
       [ QCheck_alcotest.to_alcotest prop_delay_deterministic_and_bounded;
         QCheck_alcotest.to_alcotest prop_never_retries_validation;
         Alcotest.test_case "retryable classes" `Quick test_policy_retryable;
         Alcotest.test_case "schedule and cap" `Quick test_policy_schedule ]);
      ("queue",
       [ Alcotest.test_case "bounds and refusal" `Quick test_queue_bounds;
         Alcotest.test_case "pop groups by key" `Quick
           test_queue_pop_groups_by_key ]);
      ("codec",
       [ Alcotest.test_case "round trip" `Quick test_request_roundtrip;
         Alcotest.test_case "validation" `Quick test_request_validation;
         Alcotest.test_case "guide field" `Quick test_request_guide_field;
         QCheck_alcotest.to_alcotest prop_request_codec_fuzz;
         Alcotest.test_case "fingerprint batching identity" `Quick
           test_fingerprint_groups_configs ]);
      ("server",
       [ Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
         Alcotest.test_case "guides share one prepared flow" `Quick
           test_guides_share_flow;
         Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
         Alcotest.test_case "backpressure" `Quick test_backpressure;
         Alcotest.test_case "retry recovers transient" `Quick
           test_retry_recovers_transient;
         Alcotest.test_case "legalization overflow not retried" `Quick
           test_legalize_overflow_not_retried;
         Alcotest.test_case "invalid lines and summary" `Quick
           test_invalid_lines_and_summary;
         Alcotest.test_case "per-job ledger" `Quick test_per_job_ledger ]) ]
