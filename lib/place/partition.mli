(** Fiduccia–Mattheyses bipartitioning of a cell subset.

    Used by the recursive-bisection global placer to minimize the number of
    nets crossing each cut while keeping the two sides area-balanced. *)

type result = {
  side : bool array;   (** per subset index: [false] = side A, [true] = B *)
  cut_nets : int;      (** nets with pins on both sides after refinement *)
  area_a : float;      (** total cell area on side A *)
}

val bipartition :
  ?max_passes:int ->
  ?max_net_pins:int ->
  Netlist.Types.t ->
  cells:Netlist.Types.cell_id array ->
  areas:float array ->
  target_a:float ->
  tolerance:float ->
  result
(** [bipartition nl ~cells ~areas ~target_a ~tolerance] splits the
    subset so that side A holds a fraction [target_a] of the subset area
    (within [tolerance], an absolute area slack). The initial split follows
    the given cell order (which generators emit with good locality); FM
    passes with gain buckets then reduce the cut. Nets with more than
    [max_net_pins] pins inside the subset (default 64) are ignored — they
    are almost always constants or high-fanout control and carry no
    locality signal. *)

val cut_size :
  Netlist.Types.t -> cells:Netlist.Types.cell_id array -> side:bool array ->
  int
(** Number of nets with subset pins on both sides (no pin-count cap). *)
