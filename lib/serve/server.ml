(* The serve loop: admission with backpressure, same-fingerprint
   batching over a prepared-flow cache, per-job fault arming, clock-checked
   deadlines, retry with seeded backoff, graceful SIGTERM drain.

   Single-threaded by design: one main loop reads requests (a
   select-based line reader, so SIGTERM interrupts a blocking read via
   EINTR), admits them into the bounded queue, and executes one batch at
   a time over the shared Parallel.Pool. A job's deadline is armed in
   Robust.Cancel for the whole job; the job compares the clock with it at
   each cooperative checkpoint inside the solver and optimizer loops and
   aborts there, taking the pool's normal first-exception containment
   path. One job can therefore fail, time out, or carry an armed fault
   without perturbing any other job. *)

module Flow = Postplace.Flow

(* --- select-based line reader -------------------------------------------- *)

module Reader = struct
  type t = {
    fd : Unix.file_descr;
    buf : Buffer.t;                    (* partial last line *)
    chunk : bytes;
    lines : string Stdlib.Queue.t;     (* complete lines, FIFO *)
    mutable eof : bool;
  }

  let create fd =
    { fd; buf = Buffer.create 256; chunk = Bytes.create 4096;
      lines = Stdlib.Queue.create (); eof = false }

  let eof t = t.eof && Stdlib.Queue.is_empty t.lines

  (* [`Line l | `Eof | `Timeout | `Interrupted]; [`Interrupted] means a
     signal arrived mid-wait — the caller re-checks its stop flag. Any
     other read error (a directory, an I/O fault) raises [Unix_error]:
     it is not end of input. *)
  let rec next t ~timeout_s =
    match Stdlib.Queue.take_opt t.lines with
    | Some l -> `Line l
    | None ->
      if t.eof then `Eof
      else begin
        match Unix.select [ t.fd ] [] [] timeout_s with
        | [], _, _ -> `Timeout
        | _ -> (
          match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
          | 0 ->
            t.eof <- true;
            let rest = Buffer.contents t.buf in
            Buffer.clear t.buf;
            if rest <> "" then `Line rest else `Eof
          | n ->
            for i = 0 to n - 1 do
              match Bytes.get t.chunk i with
              | '\n' ->
                Stdlib.Queue.add (Buffer.contents t.buf) t.lines;
                Buffer.clear t.buf
              | c -> Buffer.add_char t.buf c
            done;
            next t ~timeout_s
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Interrupted)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Interrupted
      end
end

(* --- configuration and summary -------------------------------------------- *)

type config = {
  queue_capacity : int;
  policy : Policy.t;
  flow_slots : int;
  ledger : string option;
  handle_sigterm : bool;
}

let default_config =
  { queue_capacity = 64; policy = Policy.default; flow_slots = 4;
    ledger = None; handle_sigterm = true }

type summary = {
  accepted : int;
  rejected : int;
  invalid : int;
  succeeded : int;
  failed : int;
  deadline_exceeded : int;
  retries : int;
  batches : int;
  drained_on_signal : bool;
}

let summary_json s =
  Obs.Json.Obj
    [ ("accepted", Obs.Json.Int s.accepted);
      ("rejected", Obs.Json.Int s.rejected);
      ("invalid", Obs.Json.Int s.invalid);
      ("succeeded", Obs.Json.Int s.succeeded);
      ("failed", Obs.Json.Int s.failed);
      ("deadline_exceeded", Obs.Json.Int s.deadline_exceeded);
      ("retries", Obs.Json.Int s.retries);
      ("batches", Obs.Json.Int s.batches);
      ("drained_on_signal", Obs.Json.Bool s.drained_on_signal) ]

(* --- the server ----------------------------------------------------------- *)

type counts = {
  mutable c_accepted : int;
  mutable c_rejected : int;
  mutable c_invalid : int;
  mutable c_succeeded : int;
  mutable c_failed : int;
  mutable c_deadline : int;
  mutable c_retries : int;
  mutable c_batches : int;
}

let take n l = List.filteri (fun i _ -> i < n) l

let run ?(config = default_config) ~input ~output () =
  let stop = Atomic.make false in
  let prev_handler =
    if config.handle_sigterm then
      Some
        (Sys.signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
    else None
  in
  let reader = Reader.create input in
  let queue = Queue.create ~capacity:config.queue_capacity in
  let counts =
    { c_accepted = 0; c_rejected = 0; c_invalid = 0; c_succeeded = 0;
      c_failed = 0; c_deadline = 0; c_retries = 0; c_batches = 0 }
  in
  (* fingerprint -> (flow, base evaluation), MRU. Populated only by a
     fully successful prepare+evaluate that ran with no fault armed, so
     a fault- or deadline-poisoned job can never cache a tainted flow for
     its batch mates — not even one its fault left intact but solved by
     another path (a stalled CG recovered by its cold-Jacobi retry). *)
  let cache : (string * (Flow.t * Flow.evaluation)) list ref = ref [] in
  let lineno = ref 0 in
  let respond json =
    output_string output (Obs.Json.to_string json ^ "\n");
    flush output
  in
  let depth_gauge () =
    Obs.Metrics.gauge "serve.queue.depth" (float_of_int (Queue.depth queue))
  in
  let count_outcome outcome =
    Obs.Metrics.count "serve.jobs" ~labels:[ ("outcome", outcome) ]
  in
  let job_record ?job_id ?config:(cfg = []) ?peak_rise_k ?plan_hash ?error
      ~fingerprint ~elapsed_ms ~outcome ~exit_code () =
    Obs.Ledger.append_or_warn ~prog:"serve" config.ledger
      (Obs.Ledger.make_record ~command:"serve.job" ?job_id ~config:cfg
         ~phases_ms:[ ("job_ms", elapsed_ms) ] ?peak_rise_k ?plan_hash
         ?error ~fingerprint ~outcome ~exit_code ())
  in
  let response ~id ~outcome ~exit_code ~attempts ~fingerprint ?result
      ?error ~elapsed_ms () =
    Obs.Json.Obj
      ([ ("id", Obs.Json.String id);
         ("outcome", Obs.Json.String outcome);
         ("exit_code", Obs.Json.Int exit_code);
         ("attempts", Obs.Json.Int attempts);
         ("fingerprint", Obs.Json.String fingerprint) ]
       @ (match result with Some r -> [ ("result", r) ] | None -> [])
       @ (match error with
          | Some e -> [ ("error", Obs.Json.String e) ]
          | None -> [])
       @ [ ("elapsed_ms", Obs.Json.Float elapsed_ms) ])
  in
  (* admission: parse, validate, push-or-reject. Rejections and invalid
     requests are answered immediately — they never occupy a slot. *)
  let handle_line line =
    incr lineno;
    match Job.request_of_line line with
    | Error msg ->
      counts.c_invalid <- counts.c_invalid + 1;
      count_outcome "invalid";
      let id = Printf.sprintf "line-%d" !lineno in
      respond
        (response ~id ~outcome:"invalid" ~exit_code:2 ~attempts:0
           ~fingerprint:"" ~error:msg ~elapsed_ms:0.0 ());
      job_record ~job_id:id ~fingerprint:"" ~elapsed_ms:0.0 ~error:msg
        ~outcome:"invalid" ~exit_code:2 ()
    | Ok req ->
      if Queue.try_push queue req then begin
        counts.c_accepted <- counts.c_accepted + 1;
        depth_gauge ()
      end
      else begin
        counts.c_rejected <- counts.c_rejected + 1;
        count_outcome "rejected";
        let e =
          Robust.Error.Queue_full
            { job_id = req.Job.id; depth = Queue.depth queue;
              capacity = config.queue_capacity }
        in
        let code = Robust.Error.exit_code e in
        respond
          (response ~id:req.Job.id ~outcome:"rejected" ~exit_code:code
             ~attempts:0 ~fingerprint:(Job.fingerprint req)
             ~error:(Robust.Error.to_string e) ~elapsed_ms:0.0 ());
        job_record ~job_id:req.Job.id ~config:(Job.config_json req)
          ~fingerprint:(Job.fingerprint req) ~elapsed_ms:0.0
          ~error:(Robust.Error.to_string e) ~outcome:"rejected"
          ~exit_code:code ()
      end
  in
  (* read everything immediately available; optionally block (briefly)
     for the first line so an idle server still notices SIGTERM *)
  let fill ~block =
    let rec go timeout =
      if Atomic.get stop then ()
      else
        match Reader.next reader ~timeout_s:timeout with
        | `Line l ->
          if String.trim l <> "" then handle_line l;
          go 0.0
        | `Timeout | `Interrupted | `Eof -> ()
    in
    go (if block then 0.25 else 0.0)
  in
  let lookup_flow ~cacheable req fp =
    match List.assoc_opt fp !cache with
    | Some v ->
      Obs.Metrics.count "serve.flow_cache.hits";
      cache := (fp, v) :: List.remove_assoc fp !cache;
      v
    | None ->
      Obs.Metrics.count "serve.flow_cache.misses";
      let flow = Job.prepare_flow req in
      let base = Flow.evaluate flow flow.Flow.base_placement in
      let v = (flow, base) in
      if cacheable then cache := take config.flow_slots ((fp, v) :: !cache);
      v
  in
  let execute_job (req : Job.request) =
    let t0 = Obs.Clock.now () in
    let fp = Job.fingerprint req in
    let max_retries =
      match req.Job.max_retries with
      | Some r -> r
      | None -> config.policy.Policy.max_retries
    in
    let rec attempt_loop attempt =
      (* faults model a transient poisoning of one job: armed before the
         first attempt only, so a retry runs clean *)
      let faulted = attempt = 1 && req.Job.faults <> [] in
      if faulted then
        List.iter
          (fun (f, n) -> Robust.Faults.arm ~times:n f)
          req.Job.faults;
      let res =
        match
          let flow, base = lookup_flow ~cacheable:(not faulted) req fp in
          Job.execute ~flow ~base req
        with
        | r -> Ok r
        | exception Robust.Error.Error e -> Error e
        | exception e ->
          Error (Robust.Error.Worker_failed { detail = Printexc.to_string e })
      in
      if req.Job.faults <> [] then Robust.Faults.clear ();
      match res with
      | Ok r -> (Ok r, attempt)
      | Error e ->
        if Policy.retryable e && attempt <= max_retries then begin
          counts.c_retries <- counts.c_retries + 1;
          Obs.Metrics.count "serve.retries";
          Unix.sleepf
            (Policy.delay_ms config.policy ~job_id:req.Job.id ~attempt
             /. 1e3);
          attempt_loop (attempt + 1)
        end
        else (Error e, attempt)
    in
    (* the deadline spans every attempt and the backoff between them *)
    Option.iter
      (fun d ->
         Robust.Cancel.arm_deadline ~job_id:req.Job.id ~t0 ~deadline_ms:d)
      req.Job.deadline_ms;
    let result, attempts =
      Fun.protect ~finally:Robust.Cancel.clear (fun () -> attempt_loop 1)
    in
    let elapsed_ms = (Obs.Clock.now () -. t0) *. 1e3 in
    Obs.Metrics.observe "serve.job.latency_ms"
      ~labels:[ ("technique", Job.technique_name req.Job.technique) ]
      elapsed_ms;
    let cfg = Job.config_json req @ [ ("attempts", Obs.Json.Int attempts) ] in
    match result with
    | Ok (r : Job.executed) ->
      counts.c_succeeded <- counts.c_succeeded + 1;
      count_outcome "ok";
      respond
        (response ~id:req.Job.id ~outcome:"ok" ~exit_code:0 ~attempts
           ~fingerprint:fp ~result:r.Job.result_json ~elapsed_ms ());
      job_record ~job_id:req.Job.id ~config:cfg
        ~peak_rise_k:r.Job.peak_rise_k ?plan_hash:r.Job.plan_hash
        ~fingerprint:fp ~elapsed_ms ~outcome:"ok" ~exit_code:0 ()
    | Error e ->
      let outcome =
        match e with
        | Robust.Error.Deadline_exceeded _ ->
          counts.c_deadline <- counts.c_deadline + 1;
          "deadline_exceeded"
        | _ ->
          counts.c_failed <- counts.c_failed + 1;
          "failed"
      in
      count_outcome outcome;
      let code = Robust.Error.exit_code e in
      respond
        (response ~id:req.Job.id ~outcome ~exit_code:code ~attempts
           ~fingerprint:fp ~error:(Robust.Error.to_string e) ~elapsed_ms ());
      job_record ~job_id:req.Job.id ~config:cfg ~fingerprint:fp ~elapsed_ms
        ~error:(Robust.Error.to_string e) ~outcome ~exit_code:code ()
  in
  let process_batch () =
    match Queue.pop_batch queue ~key:Job.fingerprint with
    | [] -> ()
    | batch ->
      counts.c_batches <- counts.c_batches + 1;
      Obs.Metrics.count "serve.batches";
      Obs.Metrics.observe "serve.batch.size"
        (float_of_int (List.length batch));
      depth_gauge ();
      List.iter execute_job batch
  in
  let rec loop () =
    if Atomic.get stop then ()
    else begin
      fill ~block:false;
      if not (Queue.is_empty queue) then begin
        process_batch ();
        loop ()
      end
      else if Reader.eof reader then ()
      else begin
        fill ~block:true;
        loop ()
      end
    end
  in
  (* a read error on the input propagates to the caller, but never with
     the SIGTERM handler still installed *)
  Fun.protect
    ~finally:(fun () ->
      match prev_handler with
      | Some h -> Sys.set_signal Sys.sigterm h
      | None -> ())
  @@ fun () ->
  loop ();
  let drained_on_signal = Atomic.get stop in
  (* graceful drain: stop accepting, finish everything already admitted *)
  while not (Queue.is_empty queue) do
    process_batch ()
  done;
  { accepted = counts.c_accepted; rejected = counts.c_rejected;
    invalid = counts.c_invalid; succeeded = counts.c_succeeded;
    failed = counts.c_failed; deadline_exceeded = counts.c_deadline;
    retries = counts.c_retries; batches = counts.c_batches;
    drained_on_signal }
