(* Retry policy: exponential backoff with seeded, deterministic jitter.

   Only transient failure classes are retryable — a CG breakdown that
   its retry did not recover, or a worker death, can succeed on a
   clean re-run (the injected fault or numerical bad luck is gone).
   Validation errors are facts about the request and retrying them only
   burns server time, so they never retry. Jitter is drawn from a
   splitmix64 stream keyed on (policy seed, job id, attempt): two runs of
   the same job file produce byte-identical backoff schedules, which is
   what makes the QCheck determinism property (and bench comparisons)
   possible. *)

type t = {
  max_retries : int;
  base_delay_ms : float;
  multiplier : float;
  max_delay_ms : float;
  jitter : float;
  seed : int;
}

let default =
  { max_retries = 2; base_delay_ms = 25.0; multiplier = 4.0;
    max_delay_ms = 2000.0; jitter = 0.25; seed = 42 }

let retryable = function
  | Robust.Error.Solver_diverged _ | Robust.Error.Worker_failed _ -> true
  | Robust.Error.Invariant_violation _ | Robust.Error.Checkpoint_corrupt _
  | Robust.Error.Queue_full _ | Robust.Error.Deadline_exceeded _ -> false

let delay_ms t ~job_id ~attempt =
  if attempt < 1 then
    invalid_arg "Serve.Policy.delay_ms: attempt must be >= 1";
  let backoff =
    t.base_delay_ms *. (t.multiplier ** float_of_int (attempt - 1))
  in
  let capped = Float.min backoff t.max_delay_ms in
  let rng = Geo.Rng.create (t.seed lxor Hashtbl.hash (job_id, attempt)) in
  let u = Geo.Rng.float rng 1.0 in
  capped *. (1.0 -. t.jitter +. (2.0 *. t.jitter *. u))

let schedule t ~job_id =
  List.init t.max_retries (fun i -> delay_ms t ~job_id ~attempt:(i + 1))

let should_retry t e ~attempt = retryable e && attempt <= t.max_retries
