(** The thermal conductance operator as a layered 7-point stencil.

    The steady-state network is a resistor grid over an [nx] x [ny] x [nz]
    stack with one conductivity per layer, so its matrix is described per
    layer: every x-coupling of layer [iz] is [gx.(iz)], every y-coupling
    [gy.(iz)], and every vertical coupling between layers [iz] and
    [iz + 1] is [gz.(iz)]. The diagonal depends on a node only through
    its layer and its boundary classes in x and y (see {!boundary_class}),
    so it is a table of at most 9 x [nz] values. Nodes are x-fastest, then
    y, then z ([Mesh.node_index]); an off-diagonal entry is the negated
    coupling, and the matrix is symmetric by construction. *)

type t = private {
  nx : int;
  ny : int;
  nz : int;
  gx : float array;    (** [nz] x-couplings, one per layer *)
  gy : float array;    (** [nz] y-couplings *)
  gz : float array;    (** [nz - 1] vertical couplings, one per interface *)
  diag : float array;  (** diagonal entries, indexed by {!class_index} *)
}

val boundary_class : int -> int -> int
(** [boundary_class n i] of index [i] on an axis of [n] cells:
    [(i > 0) + 2 (i < n - 1)] — 3 in the interior, 2 on the first cell,
    1 on the last and 0 on a lone cell. *)

val classes : int -> int list
(** The boundary classes that occur on an axis of [n] cells, in the order
    of their first cell. *)

val first_cell : int -> int -> int
(** [first_cell n c] is the lowest index of class [c] on an axis of [n]
    cells. *)

val class_index : xc:int -> yc:int -> iz:int -> int
(** Position of the (x-class, y-class, layer) entry in [diag]. *)

val make :
  nx:int -> ny:int -> gx:float array -> gy:float array -> gz:float array ->
  diag:(xc:int -> yc:int -> iz:int -> float) -> t
(** [nz] is [Array.length gx]; [diag] is called once per class that
    occurs. Raises [Invalid_argument] on non-positive dimensions or
    coupling arrays of the wrong length. *)

val dim : t -> int

val shift : t -> float array -> t
(** [shift t s] adds [s.(iz)] to every diagonal entry of layer [iz], last:
    the backward-Euler operator [G + C/dt] from [G] and the per-layer
    [C/dt]. *)

val diagonal : t -> float array
(** The diagonal, one entry per node. *)

val iter_row : t -> int -> f:(int -> float -> unit) -> unit
(** Visit the entries of one row as [(column, value)] pairs in ascending
    column order: z-, y-, x-, diagonal, x+, y+, z+. *)

val mul : t -> float array -> float array -> unit
(** [mul a x y] computes [y <- A x]; each row sums its entries in
    {!iter_row} order, starting from 0. *)
