(** The thermal conductance operator as a layered 7-point stencil.

    The steady-state network is a resistor grid over an [nx] x [ny] x [nz]
    stack with one conductivity per layer, so its matrix is described per
    layer: every x-coupling of layer [iz] is [gx.(iz)], every y-coupling
    [gy.(iz)], and every vertical coupling between layers [iz] and
    [iz + 1] is [gz.(iz)]. The diagonal depends on a node only through
    its layer and its boundary classes in x and y, so it is a table of at
    most 9 x [nz] values. Nodes are x-fastest, then y, then z
    ([Mesh.node_index]); an off-diagonal entry is the negated coupling,
    and the matrix is symmetric by construction. *)

type t

val make :
  nx:int -> ny:int -> gx:float array -> gy:float array -> gz:float array ->
  diag:(xc:int -> yc:int -> iz:int -> float) -> t
(** [nz] is [Array.length gx]. [diag] gives the diagonal entry of the
    nodes of layer [iz] whose x and y boundary classes are [xc] and [yc];
    an index [i] on an axis of [n] cells has class
    [(i > 0) + 2 (i < n - 1)], so bit 0 means a neighbour below [i] and
    bit 1 one above it (3 in the interior, 2 on the first cell, 1 on the
    last and 0 on a lone cell). It is called once per class that occurs.
    Raises [Invalid_argument] on non-positive dimensions or coupling
    arrays of the wrong length. *)

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
