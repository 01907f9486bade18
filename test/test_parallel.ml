(* Tests for the domain pool: coverage, ordering, failure propagation,
   nesting, and the bit-identical-across-pool-sizes contract on a real
   thermal solve. *)

let with_jobs n f =
  Parallel.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs 1) f

let test_every_chunk_exactly_once () =
  with_jobs 4 (fun () ->
      let chunks = 200 in
      let hit = Array.make chunks 0 in
      let executed = Atomic.make 0 in
      Parallel.Pool.parallel_for ~chunks (fun i ->
          hit.(i) <- hit.(i) + 1;
          Atomic.incr executed);
      Alcotest.(check int) "execution count" chunks (Atomic.get executed);
      Array.iteri
        (fun i n ->
           if n <> 1 then Alcotest.failf "chunk %d executed %d times" i n)
        hit)

let test_map_preserves_order () =
  with_jobs 4 (fun () ->
      let input = List.init 101 (fun i -> i) in
      let got = Parallel.Pool.map_list input ~f:(fun i -> i * i) in
      Alcotest.(check (list int)) "squares in order"
        (List.map (fun i -> i * i) input)
        got;
      let arr = Parallel.Pool.map_array [| 5; 3; 9 |] ~f:string_of_int in
      Alcotest.(check (array string)) "array order" [| "5"; "3"; "9" |] arr)

let test_exception_propagates () =
  with_jobs 4 (fun () ->
      (match
         Parallel.Pool.parallel_for ~chunks:16 (fun i ->
             if i = 7 then failwith "chunk 7 exploded")
       with
       | () -> Alcotest.fail "exception swallowed"
       | exception Failure msg ->
         Alcotest.(check string) "original exception" "chunk 7 exploded" msg);
      (* the pool must survive a failed job *)
      let ok = Atomic.make 0 in
      Parallel.Pool.parallel_for ~chunks:8 (fun _ -> Atomic.incr ok);
      Alcotest.(check int) "pool usable after failure" 8 (Atomic.get ok))

(* Worker-failure containment: a chunk dying mid-job (here via the
   Kill_worker fault, i.e. the exact hook the fault harness uses) must
   not deadlock the pool, must surface as the structured error, and must
   leave the pool accepting new jobs. *)
let test_worker_failure_contained () =
  with_jobs 4 (fun () ->
      let survivors = Atomic.make 0 in
      (match
         Robust.Faults.with_fault Robust.Faults.Kill_worker (fun () ->
             Parallel.Pool.parallel_for ~chunks:64 (fun _ ->
                 Atomic.incr survivors))
       with
       | () -> Alcotest.fail "killed worker not reported"
       | exception Robust.Error.Error (Robust.Error.Worker_failed _) -> ());
      (* the drain stops handing out chunks after the failure, so not
         every chunk ran — but none after the join are in flight *)
      Alcotest.(check bool) "some chunks drained" true
        (Atomic.get survivors < 64);
      (* subsequent submissions succeed on the same pool *)
      let ok = Atomic.make 0 in
      Parallel.Pool.parallel_for ~chunks:32 (fun _ -> Atomic.incr ok);
      Alcotest.(check int) "pool alive after worker death" 32
        (Atomic.get ok);
      (* repeated faults keep being contained, never wedging the pool *)
      for _ = 1 to 3 do
        (match
           Robust.Faults.with_fault Robust.Faults.Kill_worker (fun () ->
               Parallel.Pool.parallel_for ~chunks:16 (fun _ -> ()))
         with
         | () -> Alcotest.fail "repeat kill not reported"
         | exception Robust.Error.Error (Robust.Error.Worker_failed _) -> ())
      done;
      let again = Atomic.make 0 in
      Parallel.Pool.parallel_for ~chunks:16 (fun _ -> Atomic.incr again);
      Alcotest.(check int) "pool alive after repeated faults" 16
        (Atomic.get again))

let test_nested_runs_inline () =
  with_jobs 4 (fun () ->
      let total = Atomic.make 0 in
      Parallel.Pool.parallel_for ~chunks:4 (fun _ ->
          (* a nested call must not deadlock on the shared pool *)
          Parallel.Pool.parallel_for ~chunks:4 (fun _ -> Atomic.incr total));
      Alcotest.(check int) "all inner chunks ran" 16 (Atomic.get total))

(* Drain-then-join: a shutdown racing an in-flight job (the serve
   drain-on-SIGTERM path) must let the job finish — every chunk exactly
   once — and must be idempotent. *)
let test_shutdown_drains_inflight () =
  with_jobs 4 (fun () ->
      let chunks = 64 in
      let hit = Array.make chunks 0 in
      let started = Atomic.make false in
      let killer =
        Domain.spawn (fun () ->
            while not (Atomic.get started) do Domain.cpu_relax () done;
            Parallel.Pool.shutdown ())
      in
      Parallel.Pool.parallel_for ~chunks (fun i ->
          Atomic.set started true;
          (* a little work so the shutdown really races the job *)
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < 1e-4 do () done;
          hit.(i) <- hit.(i) + 1);
      Domain.join killer;
      Array.iteri
        (fun i n ->
           if n <> 1 then Alcotest.failf "chunk %d executed %d times" i n)
        hit;
      (* idempotent, including back to back with no pool alive *)
      Parallel.Pool.shutdown ();
      Parallel.Pool.shutdown ();
      (* and the next job respawns the workers *)
      let ok = Atomic.make 0 in
      Parallel.Pool.parallel_for ~chunks:16 (fun _ -> Atomic.incr ok);
      Alcotest.(check int) "pool usable after shutdown" 16 (Atomic.get ok))

let test_with_pool () =
  let n = Atomic.make 0 in
  let r =
    Parallel.Pool.with_pool ~jobs:3 (fun () ->
        Alcotest.(check int) "jobs applied" 3 (Parallel.Pool.jobs ());
        Parallel.Pool.parallel_for ~chunks:8 (fun _ -> Atomic.incr n);
        "done")
  in
  Alcotest.(check string) "result returned" "done" r;
  Alcotest.(check int) "all chunks ran" 8 (Atomic.get n);
  (* workers were joined on exit, but the pool stays usable *)
  let again = Atomic.make 0 in
  Parallel.Pool.parallel_for ~chunks:8 (fun _ -> Atomic.incr again);
  Alcotest.(check int) "usable after with_pool" 8 (Atomic.get again);
  (* the exception path shuts down too and re-raises the original *)
  (match Parallel.Pool.with_pool (fun () -> failwith "boom") with
   | _ -> Alcotest.fail "exception swallowed"
   | exception Failure msg ->
     Alcotest.(check string) "exception propagated" "boom" msg);
  Parallel.Pool.set_jobs 1

let test_set_jobs_validation () =
  (match Parallel.Pool.set_jobs 0 with
   | _ -> Alcotest.fail "jobs=0 accepted"
   | exception Invalid_argument _ -> ());
  (match Parallel.Pool.set_jobs (-3) with
   | _ -> Alcotest.fail "negative jobs accepted"
   | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "default >= 1" true (Parallel.Pool.default_jobs () >= 1)

(* The default (modal) solve is sequential by design; a pool of any size
   around it must leave the whole solve bit-identical. *)
let test_mg_bit_identical_across_jobs () =
  let nx = 40 in
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:200.0 ~h:200.0 in
  let power = Geo.Grid.create ~nx ~ny:nx ~extent in
  Geo.Grid.iteri power ~f:(fun ~ix ~iy _ ->
      Geo.Grid.set power ~ix ~iy
        (1e-4 *. (1.0 +. sin (float_of_int ((ix * nx) + iy)))));
  let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx; ny = nx } in
  let problem = Thermal.Mesh.build cfg ~power in
  Parallel.Pool.set_jobs 1;
  let seq = Thermal.Mesh.solve problem in
  with_jobs 4 (fun () ->
      let par = Thermal.Mesh.solve problem in
      Alcotest.(check int) "same iteration count"
        seq.Thermal.Mesh.cg_iterations par.Thermal.Mesh.cg_iterations;
      Alcotest.(check bool) "bit-identical solution" true
        (par.Thermal.Mesh.temp = seq.Thermal.Mesh.temp))

(* Spans opened inside pooled chunks must land in the worker domains' own
   recorders and surface in the merged export under distinct tids — the
   contract behind thermoplace --perfetto --jobs N. *)
let test_cross_domain_trace () =
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
    (fun () ->
       with_jobs 4 (fun () ->
           Parallel.Pool.parallel_for ~chunks:64 (fun i ->
               Obs.Trace.with_span "chunk" (fun () ->
                   (* a little work so every worker claims some chunks *)
                   let t0 = Unix.gettimeofday () in
                   while Unix.gettimeofday () -. t0 < 2e-4 do () done;
                   ignore i)));
       let groups = Obs.Trace.all_roots () in
       Alcotest.(check bool) "spans recorded on >= 2 domains" true
         (List.length groups >= 2);
       let total =
         List.fold_left
           (fun acc (_, roots) -> acc + List.length roots)
           0 groups
       in
       Alcotest.(check int) "no chunk span lost" 64 total;
       List.iter
         (fun (tid, roots) ->
            List.iter
              (fun (s : Obs.Trace.span) ->
                 Alcotest.(check int) "span tid matches its group" tid
                   s.Obs.Trace.tid)
              roots)
         groups;
       (* tids are sorted and distinct in the merged view *)
       let tids = List.map fst groups in
       Alcotest.(check bool) "tids sorted distinct" true
         (tids = List.sort_uniq compare tids);
       (* and the Perfetto export of the same forest validates with the
          same track set *)
       match Obs.Perfetto.validate (Obs.Perfetto.of_trace ()) with
       | Ok stats ->
         Alcotest.(check (list int)) "export tracks match recorders" tids
           stats.Obs.Perfetto.tids;
         Alcotest.(check int) "export event count" 64
           stats.Obs.Perfetto.events
       | Error e -> Alcotest.failf "perfetto export invalid: %s" e)

let () =
  Obs.Metrics.set_enabled true;
  Alcotest.run "parallel"
    [ ("pool",
       [ Alcotest.test_case "every chunk exactly once" `Quick
           test_every_chunk_exactly_once;
         Alcotest.test_case "map preserves order" `Quick
           test_map_preserves_order;
         Alcotest.test_case "exception propagates" `Quick
           test_exception_propagates;
         Alcotest.test_case "worker failure contained" `Quick
           test_worker_failure_contained;
         Alcotest.test_case "nested runs inline" `Quick
           test_nested_runs_inline;
         Alcotest.test_case "shutdown drains in-flight job" `Quick
           test_shutdown_drains_inflight;
         Alcotest.test_case "with_pool scopes the workers" `Quick
           test_with_pool;
         Alcotest.test_case "set_jobs validation" `Quick
           test_set_jobs_validation ]);
      ("determinism",
       [ Alcotest.test_case "mg bit-identical across jobs" `Quick
           test_mg_bit_identical_across_jobs ]);
      ("tracing",
       [ Alcotest.test_case "cross-domain spans merge by tid" `Quick
           test_cross_domain_trace ]) ]
