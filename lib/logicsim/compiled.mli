(** A netlist compiled once into flat arrays for the simulators.

    {!Sim} and {!Event_sim} step this table instead of walking the
    netlist's cell records: per-cycle work then reads integer net indices
    and 0/1 net state in place, with no allocation and no pass over cells
    the cycle does not touch. *)

type t = private {
  order : Netlist.Types.cell_id array;
  (** Combinational cells in topological order (primary inputs, constants
      and flip-flop outputs are the sources); slot [i] of the table is cell
      [order.(i)]. *)
  tables : int array;
  (** Truth table per slot, derived from {!Celllib.Kind.eval3}: bit
      [a + 2b + 4c] is the output on pins (a, b, c). *)
  pins : Netlist.Types.net_id array;
  (** Three input nets per slot, at [3i], [3i+1] and [3i+2]. Pins past the
      kind's arity name the slot's own output net; they are read, never
      used. *)
  outs : Netlist.Types.net_id array;  (** output net per slot *)
  dff_q : Netlist.Types.net_id array;  (** flip-flop Q nets, cell-id order *)
  dff_d : Netlist.Types.net_id array;  (** D nets, aligned with [dff_q] *)
}

val create : Netlist.Types.t -> t

val eval : t -> int array -> int -> int
(** [eval t values i] is slot [i]'s output (0 or 1) under the 0/1 net
    values [values]. *)

val settled_values : t -> Netlist.Types.t -> int array
(** Per-net 0/1 reset state: constants at their value, primary inputs and
    flip-flop outputs at 0, and the combinational logic settled on them
    (so an inverter on a 0 input starts at 1). *)
