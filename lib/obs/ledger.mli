(** Append-only JSONL run ledger — the cross-run observability substrate.

    Every completed [thermoplace] / bench run appends one schema-versioned
    JSON record (config fingerprint, per-phase wall-clock, CG iteration
    totals, peak temperature, committed plan hash, metrics summary,
    outcome) to a line-delimited file. Appends are a single [O_APPEND]
    write, so concurrent runs interleave whole records and a crash can
    only lose the in-flight line; floats reuse the exact round-trip
    {!Json} codec. The [thermoplace history] subcommand reads the ledger
    back for regression forensics. *)

val schema_version : int

val default_path : string
(** ["thermoplace.ledger.jsonl"], in the working directory. *)

val env_var : string
(** ["THERMOPLACE_LEDGER"] — overrides {!default_path}. *)

val resolve_path : ?path:string -> unit -> string option
(** Where to write: an explicit [?path] beats the [THERMOPLACE_LEDGER]
    environment variable beats {!default_path}. The value ["none"] (from
    either source) disables the ledger — returns [None]. *)

val make_record :
  ?timestamp_s:float ->
  ?job_id:string ->
  ?config:(string * Json.t) list ->
  ?phases_ms:(string * float) list ->
  ?cg_iterations:int ->
  ?peak_rise_k:float ->
  ?plan_hash:string ->
  ?metrics:Json.t ->
  ?error:string ->
  command:string ->
  fingerprint:string ->
  outcome:string ->
  exit_code:int ->
  unit ->
  Json.t
(** Build one ledger record. [timestamp_s] defaults to
    [Unix.gettimeofday ()]; optional fields are omitted (not null) when
    absent. [job_id] identifies the served request that produced the
    record (omitted for one-shot CLI runs). [metrics] is expected to be
    {!Metrics.summary_json} — the compact registry snapshot without raw
    reservoir samples. *)

val validate_record : Json.t -> (Json.t, string) result
(** A record must be a JSON object carrying an integer
    [schema_version] equal to {!schema_version}; a [job_id] field, when
    present, must be a string. *)

val append : path:string -> Json.t -> unit
(** Validate and append one record as a single line. Creates the file if
    missing. Raises [Invalid_argument] on an invalid record and
    [Unix.Unix_error] / [Failure] on I/O failure. *)

val append_or_warn : prog:string -> string option -> Json.t -> unit
(** {!append} to the resolved path ([None] — the ledger is disabled —
    does nothing). A failed append is reported on stderr as
    ["PROG: cannot append to ledger PATH: ERROR"] and never raises: a
    ledger problem must not fail the run it records. *)

val load : string -> (Json.t list, string) result
(** Parse every non-blank line, oldest first. A missing file is an empty
    ledger; a malformed or schema-incompatible line is an [Error]
    naming the line number, and an unreadable path (a directory, no
    permission) an [Error] naming the cause. Never raises. *)

(** {1 Record accessors} — tolerant readers for the history CLI. *)

val command : Json.t -> string

val job_id : Json.t -> string option
(** The served request id, when the record came from [thermoplace serve]. *)

val fingerprint : Json.t -> string
val timestamp_s : Json.t -> float
val outcome : Json.t -> string
val exit_code : Json.t -> int

val phases_ms : Json.t -> (string * float) list
(** The [phases_ms] object as an assoc list, record order preserved. *)

val config_fields : Json.t -> (string * Json.t) list
(** The [config] object's fields, record order preserved. *)
