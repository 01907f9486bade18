(** Sparse symmetric matrices in compressed-sparse-row form.

    The steady-state thermal network is a resistive nodal analysis matrix:
    symmetric, positive definite (thanks to the boundary conductances to
    ambient), with at most 7 entries per row for a 3-D 7-point stencil. *)

type builder

val builder : n:int -> builder
(** Triplet accumulator for an [n] x [n] matrix. *)

val reserve : builder -> int -> unit
(** [reserve b k] makes room for [k] triplets in total. Storage otherwise
    grows by doubling, so an assembler that knows its triplet count
    reserves it up front and allocates once. *)

val add : builder -> int -> int -> float -> unit
(** [add b i j v] accumulates [v] at (i,j). Symmetry is the caller's
    responsibility (the mesh assembler adds both (i,j) and (j,i)). *)

type t

val of_builder : builder -> t
(** Freeze into CSR; duplicate entries are summed. *)

val dim : t -> int
val nnz : t -> int

val mul : t -> float array -> float array -> unit
(** [mul a x y] computes [y <- A x]. *)

val ssor_apply : t -> diag:float array -> omega:float ->
  float array -> float array -> unit
(** [ssor_apply a ~diag ~omega r z] computes [z <- M^-1 r] for the SSOR
    splitting [M = (D/w + L) ((2-w)/w D)^-1 (D/w + U)] of the symmetric
    matrix [a], where [diag] is the (positive) diagonal and
    [w = omega]. Forward sweep, diagonal scale, backward sweep — all
    sequential, O(nnz). [z] is used as scratch; its input value is
    ignored. *)

val diagonal : t -> float array
(** Copy of the diagonal (zeros where absent). *)

val row_sum_abs : t -> int -> float
(** Sum of |entries| of a row — used by diagonal-dominance checks. *)

val get : t -> int -> int -> float
(** Entry lookup, 0.0 when absent (O(row nnz)). *)

val iter_row : t -> int -> f:(int -> float -> unit) -> unit
(** Visit the stored entries of one row as [(column, value)] pairs in
    ascending column order. *)
