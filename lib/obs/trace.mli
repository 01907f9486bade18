(** Cross-domain wall-clock timing spans with a zero-cost disabled path.

    Disabled (the default), {!with_span} is a single flag check around the
    wrapped function — safe to leave in hot paths. Enabled, each span
    records its monotonic start and duration (see {!Clock}: never
    negative even across wall-clock steps), the GC delta over the call
    (the calling domain's own allocation, and the process-wide
    collection counts) and any per-span metrics attached with
    {!add_metric}, and nests under the lexically-enclosing span of the
    {e same domain}.

    Every domain records into its own lock-free buffer ({!Parallel.Pool}
    workers register theirs on spawn; any other domain registers lazily
    on first use), so spans opened inside pooled chunks are kept, not
    dropped. {!roots} shows the calling domain's forest; {!all_roots},
    {!pp_tree}, {!to_json} and {!Perfetto.of_trace} merge every domain's
    buffer, tagging spans with their domain id ([tid]). *)

type gc_delta = {
  minor_words : float;
  major_words : float;    (** major-heap words, promoted ones included *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}
(** The three word counts are the recording domain's own allocation
    ({!Gc.counters}), so a span is never charged for work other domains
    did while it ran. The collection counts are process-wide events
    ({!Gc.quick_stat}): every domain takes part in a minor collection,
    whichever domain triggered it. *)

type span = {
  name : string;
  start_s : float;     (** seconds since {!reset} (or first enable) *)
  duration_s : float;
  tid : int;           (** id of the domain that recorded the span *)
  gc : gc_delta;       (** GC activity during the span (children included) *)
  metrics : (string * float) list;
  (** values attached with {!add_metric} while the span was open *)
  children : span list;  (** in execution order *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Drop all recorded spans — on every registered domain — and restart
    the trace clock. Does not change the enabled flag. Must not race
    traced work on other domains (call it between runs, with the pool
    idle). *)

val register_domain : unit -> unit
(** Create and register the calling domain's span buffer eagerly.
    Recording would register it lazily anyway; {!Parallel.Pool} workers
    call this on spawn so a trace export can account for every worker. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and, when tracing is enabled, records a
    span named [name] covering the call, nested under the currently open
    span of the calling domain. Exception-safe: the span closes even if
    [f] raises. If frames opened inside [f] were abandoned (their cleanup
    skipped by a non-local exit, e.g. an effect handler dropping the
    continuation), their completed children are reparented to this span
    rather than discarded. *)

val add_metric : string -> float -> unit
(** Attach a named value to the innermost open span of the calling
    domain (e.g. solver iterations, bytes written). No-op when tracing
    is disabled or no span is open. *)

val roots : unit -> span list
(** Completed top-level spans of the {e calling domain}, in execution
    order. A span still open is not included. *)

val all_roots : unit -> (int * span list) list
(** Every domain's completed top-level forest, sorted by domain id;
    domains that recorded nothing are omitted. *)

val span_count : unit -> int
(** Total number of completed spans across all domains. *)

val pp_tree : Format.formatter -> unit -> unit
(** Indented tree: one line per span with its duration in ms, its share
    of the parent's time and its allocation (minor + major words). With
    spans from more than one domain, each domain's forest is printed
    under a [-- domain N --] header. *)

val to_json : unit -> Json.t
(** The merged span forest as a JSON list of
    [{"name", "start_s", "duration_s", "tid", "gc", "metrics",
      "children"}] objects, grouped by domain in tid order. *)
