(** Named counters, gauges and histograms, with optional label sets.

    A process-global registry: any layer records under a dotted metric name
    ("thermal.cg.iterations") plus an optional [(key, value)] label set
    (e.g. [("technique", "eri")]), and the CLI / bench harness snapshots the
    whole registry into a report. Labels are canonicalized (sorted by key)
    so recording order never splits a series; each distinct
    (name, label set) pair is its own series, which is exactly the per-job
    series model the Prometheus exporter ({!Prom}) and a multi-tenant
    [serve] daemon need. Enabled by default — recording is a hashtable
    update per event, so instrumentation sits at per-solve / per-transform
    granularity, never inside numeric kernels. Disable with {!set_enabled}
    to make every recording call a no-op. *)

type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  last : float;
  samples : float list;
  (** retained reservoir. Below {!max_samples} observations this is every
      value in recording order; beyond it, an unbiased uniform sample of
      the whole stream (Algorithm R, deterministic per series). *)
  dropped : int;  (** observations not retained (stats still exact) *)
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram

type series = {
  name : string;
  labels : (string * string) list;  (** canonical: sorted by label key *)
  value : value;
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val reset : unit -> unit
(** Empty the registry. *)

val count : ?by:int -> ?labels:(string * string) list -> string -> unit
(** Add [by] (default 1) to a counter, creating it at 0. Raises
    [Invalid_argument] on duplicate label keys or if [name] is already
    registered as another metric type (under any label set). *)

val gauge : ?labels:(string * string) list -> string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : ?labels:(string * string) list -> string -> float -> unit
(** Record one observation into a histogram. The first {!max_samples}
    observations are kept verbatim; past the cap, reservoir sampling
    keeps an unbiased uniform sample of the {e whole} stream (each of
    the [n] observations retained with probability [max_samples / n]),
    so percentiles stay representative instead of freezing on the
    stream's opening regime. The replacement RNG is seeded from the
    series key — identical runs retain identical samples. Summary
    statistics (count/sum/min/max/mean) remain exact at any volume. *)

val max_samples : int

val counter_value : ?labels:(string * string) list -> string -> int option
val gauge_value : ?labels:(string * string) list -> string -> float option
val histogram : ?labels:(string * string) list -> string -> histogram option
(** Typed reads of one series: [None] when no series exists under
    [(name, labels)]; [Invalid_argument] when [name] is registered as
    another metric type (reading a histogram as a counter is a wiring
    mistake, not an absent value). *)

val mean : histogram -> float

val percentile : histogram -> float -> float
(** [percentile h q] with [q] in [0, 1]: nearest-rank percentile of the
    retained samples ([q = 0.5] is the median). [nan] on an empty
    sample set; raises [Invalid_argument] on [q] outside [0, 1]. *)

val escape_label_value : string -> string
(** Prometheus text-exposition escaping for label values: backslash,
    double-quote and newline each become a backslash escape
    (backslash-backslash, backslash-quote, backslash-n). *)

val unescape_label_value : string -> string option
(** Inverse of {!escape_label_value}; [None] on a dangling or unknown
    escape. [unescape_label_value (escape_label_value s) = Some s] for
    every [s]. *)

val series_key : string -> (string * string) list -> string
(** Render a series identity: the bare name for an empty label set,
    otherwise [name{k="v",...}] with values escaped via
    {!escape_label_value}. Keys the {!to_json} object. *)

val snapshot : unit -> series list
(** Registry contents sorted by metric name, then labels. *)

val to_json : unit -> Json.t
(** Object keyed by {!series_key}. Counters become
    [{"type":"counter","value":n}]; gauges
    [{"type":"gauge","value":v}]; histograms
    [{"type":"histogram","count","sum","min","max","mean",
      "p50","p90","p99","last","samples","dropped"}] with the
    percentiles computed from the retained reservoir. *)

val summary_json : unit -> Json.t
(** Like {!to_json} but histograms omit the raw [samples] array —
    the compact form the run ledger embeds in every record. *)
