(** One job: JSONL request codec, batching fingerprint, execution.

    A request is one line of JSON:

    {v
    {"id":"job-1","test_set":"small","technique":"optimize","seed":42,
     "cycles":200,"utilization":0.85,"precond":"mg","guide":"peak",
     "overhead":0.2,"rows":2,"deadline_ms":5000,"max_retries":2,
     "faults":"nan_power"}
    v}

    Only [id] is required; everything else has the CLI's defaults.
    [precond] takes ["auto"] or ["mg"] and selects nothing: the solver
    is not a choice ({!Thermal.Mesh.solve_result}), and the field is
    kept for clients that name it.
    Parsing is strict (unknown fields, unknown enum values,
    out-of-range numbers and malformed fault specs are admission
    errors) because an invalid request must be rejected before a flow
    is paid for, and is never retried.

    The [thermoplace] CLI describes each run as a request too, so its
    runs and served jobs share the test-set table, the fingerprint and
    the technique executor. *)

type technique = Default | Eri | Hw | Optimize

val technique_name : technique -> string

val technique_of_name : string -> (technique, string) result
(** Parse a technique name; anything else is an [Error] naming it. *)

val technique_names : string list
(** ["default"; "eri"; "hw"; "optimize"]. *)

type request = {
  id : string;
  test_set : string;
  (** a {!Postplace.Experiment.test_set_names} entry *)
  technique : technique;
  seed : int;
  cycles : int;
  utilization : float;
  guide : Postplace.Flow.guide_choice;
  (** optimizer candidate-ranking signal; ["peak"] (default) or
      ["gradient"] in the request JSON. A run option: it is not part of
      the {!fingerprint}, so it never splits a batch. *)
  guide_name : string;
  overhead : float;              (** area budget fraction, [0, 4] *)
  rows : int option;             (** explicit row budget (eri/optimize) *)
  deadline_ms : float option;    (** whole-job wall-clock budget *)
  max_retries : int option;      (** overrides the server policy *)
  faults : (Robust.Faults.fault * int) list;
  (** armed before the job's first attempt, cleared after it settles —
      one fault-armed job degrades exactly one job *)
  faults_spec : string;          (** raw spec, echoed in records *)
}

val make :
  ?test_set:string -> ?technique:string -> ?seed:int -> ?cycles:int ->
  ?utilization:float -> ?precond:string -> ?guide:string ->
  ?overhead:float -> ?rows:int -> ?deadline_ms:float ->
  ?max_retries:int -> ?faults:string -> string ->
  (request, string) result
(** [make id] validates a request from its spelled values: enum names
    against their tables, numbers against their ranges, the fault spec
    against {!Robust.Faults.parse_spec}. Errors name the job id.
    Defaults: test set ["small"], technique ["eri"], seed 42, 1000
    cycles, utilization 0.85, guide ["peak"], overhead
    0.2, no faults. [precond] must be ["auto"] or ["mg"] and is not
    stored. *)

val request_of_json : Obs.Json.t -> (request, string) result
(** Decode and {!make} one request. A field outside the schema above is
    an error naming it. *)

val request_of_line : string -> (request, string) result
val request_to_json : request -> Obs.Json.t

val config_json : request -> (string * Obs.Json.t) list
(** Request echo (without [id]) for the per-job ledger record. *)

val fingerprint : ?extra:(string * string) list -> request -> string
(** The problem identity —
    [mesh=…|precond=mg|seed=…|util=…|set=…|cycles=…], that is
    {!Postplace.Flow.config_fingerprint} over the request plus
    [set]/[cycles] extras, then [extra] in order. Computable without
    preparing a flow. It is the server's batch key, its flow-cache key
    and the fingerprint of every response and per-job ledger record:
    equal fingerprints share one prepared flow and its cached base
    evaluation, whatever their technique or [guide] (which the per-job
    config echo records). *)

val prepare_flow : request -> Postplace.Flow.t
(** Prepare the request's test set
    ({!Postplace.Experiment.prepare_test_set}). Expensive — the server
    caches the result per fingerprint. *)

(** A technique's transformed placement, before it is scored. *)
type applied = {
  placement : Place.Placement.t;
  plan : int list option;      (** ERI/optimize inserted-after rows *)
  optimizer : Postplace.Optimizer.result option;  (** optimize only *)
}

val apply :
  flow:Postplace.Flow.t -> base:Postplace.Flow.evaluation -> request ->
  applied
(** Apply the request's technique to the prepared flow. Default relaxes
    the utilization by [overhead]; HW decorates that Default placement's
    hotspots; ERI inserts [rows] rows or, without [rows],
    {!Postplace.Flow.rows_for_overhead} of [overhead]; optimize runs the
    greedy row-budget optimizer over [rows] (default 2). Raises
    [Robust.Error.Error] on structured failure. *)

type executed = {
  after : Postplace.Flow.evaluation;  (** the transformed placement's *)
  peak_rise_k : float;
  reduction_pct : float;
  area_overhead_pct : float;
  plan_hash : string option;   (** {!plan_digest} of [applied.plan] *)
  result_json : Obs.Json.t;
  (** deterministic result payload for the response line — a pure
      function of the request, never of timing or queue state *)
}

val score :
  flow:Postplace.Flow.t -> base:Postplace.Flow.evaluation -> request ->
  applied -> executed
(** Evaluate an applied technique against the base evaluation. *)

val execute :
  flow:Postplace.Flow.t -> base:Postplace.Flow.evaluation -> request ->
  executed
(** {!apply} then {!score}. Raises [Robust.Error.Error] on structured
    failure (the server's retry/deadline machinery wraps this call). *)

val plan_digest : int list -> string
(** Committed-plan identity: the MD5 hex of the comma-joined
    inserted-after rows, so "did these two runs commit the same plan?"
    is one string comparison. *)
