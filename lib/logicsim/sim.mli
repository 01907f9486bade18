(** Cycle-based two-valued logic simulator.

    The benchmark is fully synchronous (all sequential cells are posedge
    flip-flops on one implicit clock), so one simulation step is one clock
    cycle: flip-flop outputs present their captured state, primary inputs
    take their new values, the combinational cloud is evaluated in
    topological order, and flip-flops capture their D pins at the end of the
    cycle. Per-net toggle counters provide the switching activity the power
    model consumes — the role Synopsys VCS plays in the paper's flow.

    [create] compiles the netlist once into a flat gate table
    ({!Compiled}), so {!step} allocates nothing and touches each
    combinational cell and flip-flop once. *)

type t

val create : Netlist.Types.t -> t
(** Fresh simulator. Primary inputs and flip-flops start at 0 and constants
    at their value; the combinational logic is settled on that state, so
    an inverter on a 0 input starts at 1. Settling counts no toggles. *)

val netlist : t -> Netlist.Types.t

val set_input : t -> int -> bool -> unit
(** [set_input t k v] stages value [v] on primary input [k] for the next
    {!step}. *)

val input_value : t -> int -> bool
(** Currently staged value of a primary input. *)

val step : t -> unit
(** Advance one clock cycle. *)

val cycles : t -> int
(** Number of executed cycles. *)

val value : t -> Netlist.Types.net_id -> bool
(** Current value of a net (after the last [step]). *)

val toggles : t -> Netlist.Types.net_id -> int
(** Total toggle count of a net since the last {!reset_counters}. *)

val ones : t -> Netlist.Types.net_id -> int
(** Number of cycle-end samples at logic 1 since the last counter reset. *)

val reset_counters : t -> unit
(** Zero toggle/ones counters and the cycle counter (state is kept). *)
