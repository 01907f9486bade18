(** The batch optimization server behind [thermoplace serve].

    Reads JSONL job requests ({!Job.request}) from a file descriptor,
    admits them into a bounded {!Queue} (rejecting with a structured
    [Robust.Error.Queue_full] when full — backpressure, not unbounded
    buffering), pops them in same-fingerprint batches so one prepared
    flow and its cached base evaluation amortize across the batch, and
    writes one JSON response line per request to [output].

    Fault isolation is the contract: each job's armed faults, deadline
    and retry loop are scoped to that job alone. A deadline
    (["deadline_ms"], measured from the job's start and spanning its
    retries) is armed in {!Robust.Cancel} while the job runs: the job
    compares the clock with it at each cooperative checkpoint (flow
    evaluations, optimizer candidates, CG iterations, the end of a modal
    solve) and fails with [Deadline_exceeded] at the first one past it.
    A failing, timed-out or fault-poisoned job produces one structured
    failure response and ledger record; every other job — including
    batch mates — completes bit-identically to a run without the
    poisoned job: a flow prepared while a job's faults are armed serves
    that attempt alone and is never cached. The
    server itself exits its loop normally in both the EOF and SIGTERM
    cases; SIGTERM stops admission, drains everything already accepted,
    and is reported via [drained_on_signal]. *)

type config = {
  queue_capacity : int;       (** bounded admission queue (default 64) *)
  policy : Policy.t;          (** retry/backoff policy *)
  flow_slots : int;           (** prepared-flow MRU capacity (default 4) *)
  ledger : string option;     (** per-job ledger path; [None] disables *)
  handle_sigterm : bool;      (** install the SIGTERM drain handler *)
}

val default_config : config

type summary = {
  accepted : int;            (** admitted into the queue *)
  rejected : int;            (** refused with [Queue_full] *)
  invalid : int;             (** unparseable / invalid request lines *)
  succeeded : int;
  failed : int;              (** structured failures (faults, solver) *)
  deadline_exceeded : int;
  retries : int;             (** extra attempts across all jobs *)
  batches : int;             (** same-fingerprint batches executed *)
  drained_on_signal : bool;  (** SIGTERM received; queue drained anyway *)
}

val summary_json : summary -> Obs.Json.t

val run :
  ?config:config -> input:Unix.file_descr -> output:out_channel -> unit ->
  summary
(** Serve until EOF on [input] (or SIGTERM, when handled): every request
    line gets exactly one response line on [output] — [{"id", "outcome",
    "exit_code", "attempts", "fingerprint", "result"?, "error"?,
    "elapsed_ms"}] — and, when [config.ledger] is set, one ledger record
    (command ["serve.job"], [job_id] = request id). Outcomes: [ok],
    [failed], [deadline_exceeded], [rejected], [invalid]; [exit_code]
    uses the {!Robust.Error.exit_code} table (0 for ok, 2 for invalid).
    Metrics: [serve.queue.depth] gauge, [serve.jobs{outcome=...}]
    counters, [serve.job.latency_ms{technique=...}] histograms,
    [serve.batches], [serve.batch.size], [serve.retries],
    [serve.flow_cache.hits]/[.misses]. A read error on [input] other
    than [EINTR] (a directory, an I/O fault) is not end of input: it
    raises [Unix.Unix_error] once the SIGTERM handler is restored. *)
