(** Dense Cholesky factorization — an independent direct solver.

    CG is the production path; this O(n³) solver exists to cross-validate
    it on small meshes (tests) and to solve the coarsest level of every
    {!Multigrid} V-cycle. *)

type t
(** A factored SPD matrix. *)

val of_stencil : Stencil.t -> t
(** Densify and factor. Raises [Failure] if the operator is not positive
    definite. Meant for dimensions up to a few thousand. *)

val solve_into : t -> float array -> float array -> unit
(** [solve_into chol b x] writes the solution of [A x = b] into [x] and
    allocates nothing; [x] may be [b] itself (solve in place). Raises
    [Invalid_argument] if either length differs from {!dim}. *)

val dim : t -> int
