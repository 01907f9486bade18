(* Tests for the resilience subsystem: structured errors, the
   fault-injection registry, invariant checks, checkpoint/resume (with
   the bit-identical-resume contract), and the end-to-end behaviour of
   injected faults in the flow — every fault recovered or surfaced as a
   structured error, never a silent wrong answer. *)

module E = Robust.Error
module F = Robust.Faults
module V = Robust.Validate
module C = Robust.Checkpoint

(* --- errors ------------------------------------------------------------------- *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_error_rendering () =
  let e =
    E.Solver_diverged
      { residual = 0.031; iterations = 5760;
        rungs = [ "requested"; "restart" ] }
  in
  let s = E.to_string e in
  Alcotest.(check bool) "mentions rungs" true
    (contains ~needle:"requested,restart" s);
  Alcotest.(check int) "solver exit code" 10 (E.exit_code e);
  Alcotest.(check int) "invariant exit code" 11
    (E.exit_code (E.Invariant_violation { check = "c"; detail = "d" }));
  Alcotest.(check int) "worker exit code" 12
    (E.exit_code (E.Worker_failed { detail = "d" }));
  Alcotest.(check int) "checkpoint exit code" 13
    (E.exit_code (E.Checkpoint_corrupt { path = "p"; detail = "d" }));
  (* to_json is valid JSON with an error class *)
  List.iter
    (fun e ->
       let j = E.to_json e in
       match Obs.Json.member "error" j with
       | Some (Obs.Json.String _) -> ()
       | _ -> Alcotest.failf "no error class in %s" (Obs.Json.to_string j))
    [ e; E.Invariant_violation { check = "c"; detail = "d" };
      E.Worker_failed { detail = "d" };
      E.Checkpoint_corrupt { path = "p"; detail = "d" } ]

let test_error_protect () =
  (match E.protect (fun () -> 42) with
   | Ok v -> Alcotest.(check int) "value through" 42 v
   | Error _ -> Alcotest.fail "spurious error");
  (match E.protect (fun () -> E.raise_ (E.Worker_failed { detail = "x" })) with
   | Error (E.Worker_failed { detail }) ->
     Alcotest.(check string) "payload kept" "x" detail
   | _ -> Alcotest.fail "structured error not caught");
  (* foreign exceptions pass through untouched *)
  (match E.protect (fun () -> failwith "other") with
   | _ -> Alcotest.fail "Failure swallowed"
   | exception Failure _ -> ())

(* --- fault registry ------------------------------------------------------------ *)

let test_fault_arming () =
  F.clear ();
  Alcotest.(check bool) "nothing armed" false (F.consume F.Cg_stall);
  F.arm F.Cg_stall;
  Alcotest.(check bool) "peek does not consume" true (F.armed F.Cg_stall);
  Alcotest.(check bool) "still armed" true (F.armed F.Cg_stall);
  Alcotest.(check bool) "fires once" true (F.consume F.Cg_stall);
  Alcotest.(check bool) "one-shot" false (F.consume F.Cg_stall);
  F.arm ~times:3 F.Nan_power;
  Alcotest.(check bool) "1/3" true (F.consume F.Nan_power);
  Alcotest.(check bool) "2/3" true (F.consume F.Nan_power);
  F.clear ();
  Alcotest.(check bool) "clear disarms" false (F.consume F.Nan_power);
  (match F.arm ~times:0 F.Cg_stall with
   | _ -> Alcotest.fail "times=0 accepted"
   | exception Invalid_argument _ -> ());
  (* with_fault disarms leftovers even when the body does not consume *)
  F.with_fault ~times:5 F.Kill_worker (fun () -> ());
  Alcotest.(check bool) "with_fault cleans up" false (F.consume F.Kill_worker)

let test_fault_spec_parsing () =
  (match F.parse_spec "cg_stall:4,nan_power" with
   | Ok [ (F.Cg_stall, 4); (F.Nan_power, 1) ] -> ()
   | Ok _ -> Alcotest.fail "wrong parse"
   | Error m -> Alcotest.failf "valid spec rejected: %s" m);
  (match F.parse_spec "" with
   | Ok [] -> ()
   | _ -> Alcotest.fail "empty spec must parse to []");
  (match F.parse_spec "no_such_fault" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown fault accepted");
  (match F.parse_spec "cg_stall:zero" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad count accepted");
  (* every fault name round-trips *)
  List.iter
    (fun f ->
       Alcotest.(check bool)
         (Printf.sprintf "%s round-trips" (F.to_string f))
         true
         (F.of_string (F.to_string f) = Some f))
    F.all

(* --- validate ------------------------------------------------------------------ *)

let test_validate () =
  let pass = V.make "always.pass" (fun () -> Ok ()) in
  let fail = V.make "always.fail" (fun () -> Error "because") in
  (match V.run_all [ pass; fail; pass ] with
   | [ a; b; c ] ->
     Alcotest.(check (option string)) "pass" None a.V.failure;
     Alcotest.(check (option string)) "fail" (Some "because") b.V.failure;
     Alcotest.(check (option string)) "later check still ran" None
       c.V.failure
   | _ -> Alcotest.fail "wrong outcome count");
  (match V.first_failure [ pass; fail ] with
   | Error (E.Invariant_violation { check; detail }) ->
     Alcotest.(check string) "check name" "always.fail" check;
     Alcotest.(check string) "detail" "because" detail
   | _ -> Alcotest.fail "first_failure missed");
  (match V.first_failure [ pass; pass ] with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "spurious failure");
  Alcotest.(check bool) "all_finite ok" true
    (V.all_finite ~what:"v" [| 1.0; -2.0 |] = Ok ());
  Alcotest.(check bool) "all_finite nan" true
    (Result.is_error (V.all_finite ~what:"v" [| 1.0; Float.nan |]));
  Alcotest.(check bool) "non_negative eps" true
    (V.non_negative ~eps:1e-9 ~what:"v" [| 0.0; -1e-12 |] = Ok ());
  Alcotest.(check bool) "non_negative fails" true
    (Result.is_error (V.non_negative ~what:"v" [| -1.0 |]));
  Alcotest.(check bool) "within fails above" true
    (Result.is_error (V.within ~what:"v" ~lo:0.0 ~hi:1.0 [| 1.5 |]))

(* --- checkpoint ---------------------------------------------------------------- *)

let with_tmp f =
  let path = Filename.temp_file "robust_ckpt" ".json" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_tmp (fun path ->
      (match C.load ~path ~key:"k" with
       | Ok [] -> ()
       | _ -> Alcotest.fail "missing file must read as empty");
      let entries =
        [ (0, Obs.Json.Obj [ ("v", Obs.Json.Float 0.1) ]);
          (2, Obs.Json.Obj [ ("v", Obs.Json.Float (-3.25e-7)) ]) ]
      in
      C.save ~path ~key:"k" ~entries;
      (match C.load ~path ~key:"k" with
       | Ok got ->
         Alcotest.(check bool) "entries bit-identical" true (got = entries)
       | Error e -> Alcotest.failf "load failed: %s" (E.to_string e));
      (* wrong fingerprint is refused *)
      (match C.load ~path ~key:"other" with
       | Error (E.Checkpoint_corrupt _) -> ()
       | _ -> Alcotest.fail "key mismatch accepted"))

let test_checkpoint_corruption () =
  with_tmp (fun path ->
      let write s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      write "{ not json";
      (match C.load ~path ~key:"k" with
       | Error (E.Checkpoint_corrupt _) -> ()
       | _ -> Alcotest.fail "garbage accepted");
      write "{\"schema_version\": 1, \"kind\": \"something-else\", \
             \"key\": \"k\", \"entries\": []}";
      (match C.load ~path ~key:"k" with
       | Error (E.Checkpoint_corrupt _) -> ()
       | _ -> Alcotest.fail "wrong kind accepted");
      write "{\"schema_version\": 99, \"kind\": \"thermoplace-checkpoint\", \
             \"key\": \"k\", \"entries\": []}";
      (match C.load ~path ~key:"k" with
       | Error (E.Checkpoint_corrupt _) -> ()
       | _ -> Alcotest.fail "wrong schema accepted");
      write "{\"schema_version\": 1, \"kind\": \"thermoplace-checkpoint\", \
             \"key\": \"k\", \"entries\": [{\"index\": \"x\"}]}";
      (match C.load ~path ~key:"k" with
       | Error (E.Checkpoint_corrupt _) -> ()
       | _ -> Alcotest.fail "malformed entry accepted"))

(* --- flow-level fault behaviour ------------------------------------------------- *)

let small_flow =
  lazy
    (let bench = Netgen.Benchmark.small () in
     Parallel.Pool.set_jobs 1;
     Postplace.Flow.prepare ~seed:7 ~utilization:0.7 ~sim_cycles:60
       ~mesh_config:
         { Thermal.Mesh.nx = 12; ny = 12;
           stack = Thermal.Stack.default_9layer }
       bench
       (Logicsim.Workload.make ~default:0.05 ~hot:[ (0, 0.5) ]))

let test_flow_nan_power_surfaced () =
  let flow = Lazy.force small_flow in
  match
    F.with_fault F.Nan_power (fun () ->
        Postplace.Flow.evaluate_result flow
          flow.Postplace.Flow.base_placement)
  with
  | Error (E.Invariant_violation { check; _ }) ->
    Alcotest.(check string) "power check caught it" "power.finite_nonneg"
      check
  | Ok _ -> Alcotest.fail "NaN power evaluated silently"
  | Error e -> Alcotest.failf "wrong error class: %s" (E.to_string e)

let test_flow_cg_stall_recovered_and_degraded () =
  let flow = Lazy.force small_flow in
  let reference =
    match
      Postplace.Flow.evaluate_result flow flow.Postplace.Flow.base_placement
    with
    | Ok ev -> ev
    | Error e -> Alcotest.failf "clean evaluation failed: %s" (E.to_string e)
  in
  (* one stall: the cold-Jacobi retry absorbs it and the evaluation
     succeeds with a near-identical temperature field *)
  (match
     F.with_fault F.Cg_stall (fun () ->
         Postplace.Flow.evaluate_result flow
           flow.Postplace.Flow.base_placement)
   with
   | Ok ev ->
     let p0 = reference.Postplace.Flow.metrics.Thermal.Metrics.peak_rise_k in
     let p1 = ev.Postplace.Flow.metrics.Thermal.Metrics.peak_rise_k in
     Alcotest.(check bool) "recovered peak matches" true
       (Float.abs (p0 -. p1) <= 1e-6 *. (1.0 +. Float.abs p0))
   | Error e ->
     Alcotest.failf "single stall not recovered: %s" (E.to_string e));
  (* a stall on the CG attempt and one on its retry exhaust the one
     recovery path: structured divergence error *)
  (match
     F.with_fault ~times:2 F.Cg_stall (fun () ->
         Postplace.Flow.evaluate_result flow
           flow.Postplace.Flow.base_placement)
   with
   | Error (E.Solver_diverged { rungs; _ }) ->
     Alcotest.(check (list string)) "attempt and retry"
       [ "requested"; "restart" ] rungs
   | Ok _ -> Alcotest.fail "flooded stalls evaluated silently"
   | Error e -> Alcotest.failf "wrong error class: %s" (E.to_string e));
  F.clear ()

(* --- checkpoint/resume bit-identity --------------------------------------------- *)

let points_equal (a : Postplace.Experiment.point list)
    (b : Postplace.Experiment.point list) =
  (* structural equality on records of floats = bitwise equality *)
  a = b

let truncate_checkpoint path ~keep =
  (* read the key out of the file so the test does not hard-code the
     fingerprint format *)
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let json = Obs.Json.of_string_exn text in
  let key =
    match Option.bind (Obs.Json.member "key" json) Obs.Json.to_string_opt with
    | Some k -> k
    | None -> Alcotest.fail "checkpoint has no key"
  in
  match C.load ~path ~key with
  | Error e -> Alcotest.failf "reload failed: %s" (E.to_string e)
  | Ok entries ->
    let kept = List.filteri (fun i _ -> i < keep) entries in
    C.save ~path ~key ~entries:kept;
    (key, List.length entries, List.length kept)

let test_fig6_checkpoint_resume_bit_identical () =
  let flow = Lazy.force small_flow in
  let overheads = [ 0.2; 0.4 ] in
  Parallel.Pool.set_jobs 1;
  let reference = Postplace.Experiment.run_fig6 ~overheads flow in
  with_tmp (fun path ->
      (* cold run with checkpointing enabled: same points *)
      let first = Postplace.Experiment.run_fig6 ~overheads ~checkpoint:path flow in
      Alcotest.(check bool) "checkpointed run identical" true
        (points_equal
           (reference.Postplace.Experiment.default_points
            @ reference.Postplace.Experiment.eri_points
            @ reference.Postplace.Experiment.hw_points)
           (first.Postplace.Experiment.default_points
            @ first.Postplace.Experiment.eri_points
            @ first.Postplace.Experiment.hw_points));
      Alcotest.(check bool) "checkpoint file exists" true
        (Sys.file_exists path);
      (* simulate an interrupted sweep: keep only the first two points *)
      let _, total, kept = truncate_checkpoint path ~keep:2 in
      (* one entry per job: Default+HW share a job, ERI has its own *)
      Alcotest.(check int) "full checkpoint had every job" 4 total;
      Alcotest.(check int) "truncated" 2 kept;
      let resumed =
        Postplace.Experiment.run_fig6 ~overheads ~checkpoint:path flow
      in
      Alcotest.(check bool) "resumed sweep bit-identical" true
        (points_equal
           (reference.Postplace.Experiment.default_points
            @ reference.Postplace.Experiment.eri_points
            @ reference.Postplace.Experiment.hw_points)
           (resumed.Postplace.Experiment.default_points
            @ resumed.Postplace.Experiment.eri_points
            @ resumed.Postplace.Experiment.hw_points));
      (* a checkpoint for different sweep parameters must be refused *)
      (match
         Postplace.Experiment.run_fig6 ~overheads:[ 0.25 ] ~checkpoint:path
           flow
       with
       | _ -> Alcotest.fail "mismatched checkpoint accepted"
       | exception E.Error (E.Checkpoint_corrupt _) -> ());
      (* so must one a sweep under another solver wrote (the retired
         --precond jacobi keyed it precond=jacobi): its points agree with
         the modal engine's only to solver tolerance *)
      let key, _, _ = truncate_checkpoint path ~keep:4 in
      let jacobi_key =
        String.concat " "
          (List.map
             (function "precond=mg" -> "precond=jacobi" | w -> w)
             (String.split_on_char ' ' key))
      in
      Alcotest.(check bool) "key names the solver" true (jacobi_key <> key);
      (match C.load ~path ~key with
       | Ok entries -> C.save ~path ~key:jacobi_key ~entries
       | Error e -> Alcotest.failf "reload failed: %s" (E.to_string e));
      (match Postplace.Experiment.run_fig6 ~overheads ~checkpoint:path flow with
       | _ -> Alcotest.fail "checkpoint from another solver accepted"
       | exception E.Error (E.Checkpoint_corrupt _) -> ()))

let test_package_checkpoint_resume () =
  let flow = Lazy.force small_flow in
  let sinks = [ 2.0e5; 1.0e6 ] in
  Parallel.Pool.set_jobs 1;
  let reference = Postplace.Experiment.run_package_sweep ~sinks flow in
  with_tmp (fun path ->
      let first =
        Postplace.Experiment.run_package_sweep ~sinks ~checkpoint:path flow
      in
      Alcotest.(check bool) "checkpointed identical" true (reference = first);
      let _, _, kept = truncate_checkpoint path ~keep:1 in
      Alcotest.(check int) "one entry kept" 1 kept;
      let resumed =
        Postplace.Experiment.run_package_sweep ~sinks ~checkpoint:path flow
      in
      Alcotest.(check bool) "resumed identical" true (reference = resumed))

(* --- loader fuzz ------------------------------------------------------------------ *)

let mutated =
  Mutate.gen
    ~inserts:
      [ ","; "\""; "{"; "}"; "["; "]"; ":"; "\n"; "null"; "1e999"; "-0";
        "\\u0000"; "\\"; {|"index":-1,|} ]

let read_all path = In_channel.with_open_bin path In_channel.input_all

let write_all path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* A fig6 checkpoint as the sweep writes it: two overheads on the small
   flow, so four job entries (two Default+HW pairs, two ERI points). *)
let fig6_checkpoint =
  lazy
    (let flow = Lazy.force small_flow in
     with_tmp (fun path ->
         ignore
           (Postplace.Experiment.run_fig6 ~overheads:[ 0.2; 0.4 ]
              ~checkpoint:path flow
            : Postplace.Experiment.fig6);
         let text = read_all path in
         let key =
           Option.get
             (Option.bind
                (Obs.Json.member "key" (Obs.Json.of_string_exn text))
                Obs.Json.to_string_opt)
         in
         (text, key)))

let prop_checkpoint_fuzz =
  QCheck.Test.make ~name:"checkpoint loader survives mutated files"
    ~count:400
    (QCheck.make ~print:(Printf.sprintf "%S")
       (QCheck.Gen.delay (fun () ->
            mutated (fst (Lazy.force fig6_checkpoint)))))
    (fun text ->
       let key = snd (Lazy.force fig6_checkpoint) in
       with_tmp @@ fun path ->
       write_all path text;
       match C.load ~path ~key with
       | exception e ->
         QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
       | Error (E.Checkpoint_corrupt _) -> true
       | Error e ->
         QCheck.Test.fail_reportf "not Checkpoint_corrupt: %s" (E.to_string e)
       | Ok entries -> (
         with_tmp @@ fun again ->
         C.save ~path:again ~key ~entries;
         match C.load ~path:again ~key with
         | Ok entries' when entries' = entries -> true
         | Ok _ -> QCheck.Test.fail_report "save and reload changed entries"
         | Error e -> QCheck.Test.fail_reportf "reload: %s" (E.to_string e)))

(* A two-record ledger as runs append it: a CLI optimize record and a
   served job's. *)
let ledger_text =
  lazy
    (with_tmp (fun path ->
         Obs.Ledger.append ~path
           (Obs.Ledger.make_record ~timestamp_s:1.5e9
              ~config:
                [ ("rows", Obs.Json.Int 2); ("guide", Obs.Json.String "peak") ]
              ~phases_ms:[ ("prepare", 812.25); ("optimize", 0.125) ]
              ~cg_iterations:64 ~peak_rise_k:2.887485157807853
              ~plan_hash:"0123456789abcdef0123456789abcdef"
              ~command:"optimize"
              ~fingerprint:
                "mesh=40x40x9|precond=mg|seed=42|util=0.85|set=small|\
                 cycles=200|rows=2|jobs=1|guide=peak"
              ~outcome:"ok" ~exit_code:0 ());
         Obs.Ledger.append ~path
           (Obs.Ledger.make_record ~timestamp_s:1.5e9 ~job_id:"j-1"
              ~phases_ms:[ ("job_ms", 3.5) ] ~error:"invariant violated"
              ~command:"serve.job" ~fingerprint:"" ~outcome:"failed"
              ~exit_code:11 ());
         read_all path))

let prop_ledger_fuzz =
  QCheck.Test.make ~name:"ledger loader survives mutated files" ~count:400
    (QCheck.make ~print:(Printf.sprintf "%S")
       (QCheck.Gen.delay (fun () -> mutated (Lazy.force ledger_text))))
    (fun text ->
       with_tmp @@ fun path ->
       write_all path text;
       match Obs.Ledger.load path with
       | exception e ->
         QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
       | Error _ -> true
       | Ok records -> (
         with_tmp @@ fun again ->
         List.iter (Obs.Ledger.append ~path:again) records;
         match Obs.Ledger.load again with
         | Ok records' when records' = records -> true
         | Ok _ -> QCheck.Test.fail_report "append and reload changed records"
         | Error msg -> QCheck.Test.fail_reportf "reload: %s" msg))

(* --- unreadable inputs ----------------------------------------------------------- *)

let with_tmp_dir f =
  let dir = Filename.temp_dir "robust_dir" "" in
  Fun.protect ~finally:(fun () -> Sys.rmdir dir) (fun () -> f dir)

let test_ledger_unreadable_path () =
  with_tmp_dir @@ fun dir ->
  match Obs.Ledger.load dir with
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "a directory loaded as a ledger"
  | Error msg ->
    Alcotest.(check bool) "names the cause" true
      (contains ~needle:"unreadable" msg)

(* The CLI, built beside the tests: exit status and stderr lines of one
   run, with the ledger disabled. *)
let run_cli args =
  let exe = "../bin/thermoplace.exe" in
  with_tmp @@ fun err ->
  let status =
    let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Unix.close null)
      (fun () ->
         let env =
           Array.of_list
             ("THERMOPLACE_LEDGER=none"
              :: List.filter
                   (fun v -> not (String.starts_with ~prefix:"THERMOPLACE_" v))
                   (Array.to_list (Unix.environment ())))
         in
         let pid =
           Unix.create_process_env exe (Array.of_list (exe :: args)) env null
             null fd
         in
         snd (Unix.waitpid [] pid))
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_all err))
  in
  ((match status with Unix.WEXITED c -> c | _ -> -1), lines)

let test_cli_history_unreadable_ledger () =
  with_tmp_dir @@ fun dir ->
  let code, lines = run_cli [ "history"; "list"; "--ledger"; dir ] in
  Alcotest.(check int) "exit 1, as for a corrupt line" 1 code;
  match lines with
  | [ l ] ->
    Alcotest.(check bool) "names the ledger" true (contains ~needle:dir l)
  | _ -> Alcotest.failf "expected one stderr line, got %d" (List.length lines)

let test_cli_serve_unreadable_input () =
  with_tmp_dir @@ fun dir ->
  let code, lines =
    run_cli [ "serve"; "--input"; dir; "--output"; "-"; "--jobs"; "1" ]
  in
  Alcotest.(check int) "exit 2, as for a missing file" 2 code;
  match lines with
  | [ l ] ->
    Alcotest.(check bool) "names the input" true (contains ~needle:dir l)
  | _ -> Alcotest.failf "expected one stderr line, got %d" (List.length lines)

(* A utilization so close to 1 that a unit region's rows cannot hold its
   cells is an invariant violation: exit 11 and one stderr line, not an
   uncaught exception. *)
let test_cli_legalize_overflow () =
  let code, lines =
    run_cli
      [ "flow"; "--test-set"; "small"; "--cycles"; "50"; "--utilization";
        "0.95" ]
  in
  Alcotest.(check int) "exit 11" 11 code;
  match lines with
  | [ l ] ->
    Alcotest.(check bool) "names the check" true
      (contains ~needle:"place.legalize" l)
  | _ -> Alcotest.failf "expected one stderr line, got %d" (List.length lines)

let () =
  Obs.Metrics.set_enabled true;
  Alcotest.run "robust"
    [ ("error",
       [ Alcotest.test_case "rendering and exit codes" `Quick
           test_error_rendering;
         Alcotest.test_case "protect" `Quick test_error_protect ]);
      ("faults",
       [ Alcotest.test_case "arming semantics" `Quick test_fault_arming;
         Alcotest.test_case "spec parsing" `Quick test_fault_spec_parsing ]);
      ("validate",
       [ Alcotest.test_case "checks and helpers" `Quick test_validate ]);
      ("checkpoint",
       [ Alcotest.test_case "round trip" `Quick test_checkpoint_roundtrip;
         Alcotest.test_case "corruption detected" `Quick
           test_checkpoint_corruption ]);
      ("loaders",
       [ QCheck_alcotest.to_alcotest prop_checkpoint_fuzz;
         QCheck_alcotest.to_alcotest prop_ledger_fuzz;
         Alcotest.test_case "ledger on a directory" `Quick
           test_ledger_unreadable_path;
         Alcotest.test_case "history on a directory" `Quick
           test_cli_history_unreadable_ledger;
         Alcotest.test_case "serve on a directory" `Quick
           test_cli_serve_unreadable_input ]);
      ("flow-faults",
       [ Alcotest.test_case "nan power surfaced" `Quick
           test_flow_nan_power_surfaced;
         Alcotest.test_case "cg stall recovered then degraded" `Quick
           test_flow_cg_stall_recovered_and_degraded;
         Alcotest.test_case "legalization overflow exits 11" `Quick
           test_cli_legalize_overflow ]);
      ("resume",
       [ Alcotest.test_case "fig6 resume bit-identical" `Quick
           test_fig6_checkpoint_resume_bit_identical;
         Alcotest.test_case "package resume bit-identical" `Quick
           test_package_checkpoint_resume ]) ]
