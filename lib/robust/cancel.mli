(** Cooperative deadline enforcement for long-running jobs.

    OCaml domains cannot be interrupted from outside, so a deadline is
    enforced by the job itself: the caller arms the job's absolute
    deadline here with {!arm_deadline}, and the hot paths
    ([Flow.evaluate_result], the optimizer's candidate loops, every CG
    iteration, the end of a modal solve) call {!check}, which compares
    {!Obs.Clock.now} with the deadline and raises
    [Error.Deadline_exceeded] once it has passed. When the raise happens
    inside a pooled chunk it takes {!Parallel.Pool.parallel_for}'s
    first-exception containment path, so cancelling a job never kills
    the pool.

    The slot is process-global and single-occupancy, matching the serve
    loop's one-job-at-a-time execution model. Callers that arm it must
    {!clear} it once the job settles, so the deadline cannot leak into
    the next job. *)

val arm_deadline : job_id:string -> t0:float -> deadline_ms:float -> unit
(** Arm the deadline [t0 + deadline_ms] (in {!Obs.Clock} seconds) for
    job [job_id], replacing any armed one. *)

val clear : unit -> unit
(** Disarm the deadline (call when the job settles). *)

val check : unit -> unit
(** Raise [Error.Error (Deadline_exceeded { job_id; elapsed_ms;
    deadline_ms })] iff a deadline is armed and the clock has reached it
    ([elapsed_ms] measured from [t0]). One atomic load when none is
    armed, so it is sprinkled on paths that run at millisecond
    granularity. *)
