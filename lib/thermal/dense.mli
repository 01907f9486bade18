(** Dense Cholesky factorization: the tests' direct-solver oracle.

    No flow solves through it. The test suites factor small stencils with
    it to check the modal engine, the blur, CG and the transient's
    backward-Euler steps against an independent O(n³) solve. *)

type t
(** A factored SPD matrix. *)

val of_stencil : Stencil.t -> t
(** Densify and factor. Raises [Failure] if the operator is not positive
    definite. Meant for dimensions up to a few thousand. *)

val solve_into : t -> float array -> float array -> unit
(** [solve_into chol b x] writes the solution of [A x = b] into [x] and
    allocates nothing; [x] may be [b] itself (solve in place). Raises
    [Invalid_argument] if either length differs from the factored
    matrix's dimension. *)
