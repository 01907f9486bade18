(* Cooperative cancellation by deadline: a single process-global slot
   holding the running job's absolute deadline, read at well-known
   checkpoints on the hot paths (Flow evaluation, the optimizer's
   candidate loops, CG iterations, after a modal solve). OCaml domains
   cannot be killed from outside, so the job itself compares the clock
   with its deadline at each checkpoint and raises the structured error
   there — inside a pooled chunk that takes the pool's normal
   first-exception containment path, so the pool itself survives. *)

type deadline = {
  at : float; (* absolute Obs.Clock time *)
  job_id : string;
  t0 : float;
  deadline_ms : float;
}

let slot : deadline option Atomic.t = Atomic.make None

let arm_deadline ~job_id ~t0 ~deadline_ms =
  Atomic.set slot
    (Some { at = t0 +. (deadline_ms /. 1e3); job_id; t0; deadline_ms })

let clear () = Atomic.set slot None

let check () =
  match Atomic.get slot with
  | None -> ()
  | Some d ->
    let now = Obs.Clock.now () in
    if now >= d.at then
      Error.raise_
        (Error.Deadline_exceeded
           { job_id = d.job_id; elapsed_ms = (now -. d.t0) *. 1e3;
             deadline_ms = d.deadline_ms })
