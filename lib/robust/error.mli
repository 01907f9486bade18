(** Structured errors for the resilient flow.

    Every recoverable failure mode of the pipeline is a constructor of
    {!t}; flow boundaries return [(_, t) result] (or raise the single
    carrier exception {!Error}) instead of bare [Failure _], so callers —
    the CLI in particular — can distinguish "the solver gave up" from "the
    design violates an invariant" and map each class to a stable process
    exit code. The cardinal rule of the subsystem: detect, recover or fail
    loudly — never return a silently wrong answer. *)

type t =
  | Solver_diverged of {
      residual : float;     (** best relative residual of the attempts *)
      iterations : int;     (** iterations of the best attempt *)
      rungs : string list;
      (** the attempts, in order: [["requested"; "restart"]] for a
          CG solve and its cold retry *)
    }
  (** A CG solve and its retry both failed; the temperature field is
      untrustworthy and must not steer placement decisions. *)
  | Invariant_violation of {
      check : string;   (** dotted check name, e.g. ["power.finite_nonneg"] *)
      detail : string;
    }
  (** A cheap between-stage invariant check failed (illegal placement,
      negative or NaN power, non-SPD mesh matrix, unphysical field). *)
  | Worker_failed of { detail : string }
  (** A pool worker died mid-chunk (today only via fault injection; the
      pool contains the failure and re-raises it in the caller). *)
  | Checkpoint_corrupt of {
      path : string;
      detail : string;
    }
  (** A sweep checkpoint failed to parse, has the wrong schema, carries a
      mismatched config fingerprint, or holds an undecodable entry. *)
  | Queue_full of {
      job_id : string;   (** rejected request id (or a synthetic one) *)
      depth : int;       (** queue depth at the rejection *)
      capacity : int;    (** configured queue capacity *)
    }
  (** The serve job queue was at capacity; the request was rejected with
      backpressure instead of being buffered without bound. *)
  | Deadline_exceeded of {
      job_id : string;
      elapsed_ms : float;   (** wall clock burned when the check fired *)
      deadline_ms : float;  (** the job's configured deadline *)
    }
  (** A job ran past its deadline and was cancelled at its next
      {!Cancel.check}; the pool stays healthy and keeps serving other
      jobs. *)

exception Error of t
(** The single carrier exception for code that cannot return [result]. *)

val raise_ : t -> 'a
(** [raise_ e] raises [Error e]. *)

val to_string : t -> string
(** One-line human-readable rendering, e.g.
    ["solver diverged after rungs requested,restart \
      (residual 3.1e-02, 5760 iters)"]. *)

val to_json : t -> Obs.Json.t
(** [{"error": <class>, ...fields}] for run reports. *)

val exit_code : t -> int
(** Stable per-class process exit codes for the CLI (and the
    fault-injection smoke in [scripts/check.sh]):
    [Solver_diverged] 10, [Invariant_violation] 11, [Worker_failed] 12,
    [Checkpoint_corrupt] 13, [Queue_full] 14, [Deadline_exceeded] 15. *)

val protect : (unit -> 'a) -> ('a, t) result
(** Run a thunk, catching {!Error} (only) into [Error _]. *)
