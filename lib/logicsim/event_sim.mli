(** Event-driven unit-delay logic simulation with glitch counting.

    The cycle-based engine ({!Sim}) evaluates every net once per clock and
    therefore counts at most one transition per net per cycle. Real logic
    glitches: unequal path delays make nets toggle several times before
    settling, and those spurious transitions burn real dynamic power (the
    paper's activity numbers come from VCS, an event-driven simulator that
    sees them). This engine propagates changes wave-by-wave with a unit
    gate delay and counts *every* transition.

    At quiescence the values agree exactly with {!Sim} on the same stimuli
    (property-tested); only the toggle counts differ. *)

type t

val create : Netlist.Types.t -> t

val netlist : t -> Netlist.Types.t

val set_input : t -> int -> bool -> unit
val input_value : t -> int -> bool

val step : t -> unit
(** One clock cycle: release primary-input and flip-flop-output changes as
    wave 0, propagate waves (gate delay = 1 wave) to quiescence, then
    capture flip-flop D pins. *)

val cycles : t -> int

val events : t -> int
(** Sinks reached across all waves since the last {!reset_counters} — the
    event-driven engine's unit of work: each combinational gate
    re-evaluated (at most once per wave), plus each flip-flop whose D net
    switched (counted, not evaluated). *)

val value : t -> Netlist.Types.net_id -> bool
val toggles : t -> Netlist.Types.net_id -> int
(** Transitions including glitches. *)

val ones : t -> Netlist.Types.net_id -> int
val reset_counters : t -> unit

val last_settle_waves : t -> int
(** Waves needed by the last [step] — the dynamic critical depth. *)

val measure : t -> Workload.t -> Geo.Rng.t -> warmup:int -> cycles:int ->
  Activity.report
(** Like {!Activity.measure} but with glitch-aware toggle rates (rates may
    exceed 1.0 toggles per cycle). *)
