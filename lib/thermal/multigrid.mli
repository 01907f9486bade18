(** Geometric multigrid for the layered thermal mesh.

    The RC conductance system is solved on an [nx] x [ny] x [nz] grid whose
    lateral resolution grows with the die while the layer count stays fixed
    (the paper's stack has nine layers at every grid size). The hierarchy
    therefore coarsens the x-y surface grid only — full-weighting
    restriction and cell-centered bilinear prolongation act per layer, the
    z direction is never coarsened — with one symmetric Gauss-Seidel
    (SSOR, omega 1.0) sweep before and after the coarse correction on
    every level and a dense Cholesky solve on the coarsest one. Coarse
    operators are geometric rediscretizations of the same stack at halved
    lateral resolution (supplied by the caller through [assemble]), not
    Galerkin products, which keeps hierarchy construction O(n).

    One V-cycle with symmetric smoothing and restriction proportional to
    the prolongation transpose is a fixed symmetric positive-definite
    operator, so {!apply} is a valid CG preconditioner ([Cg.Multigrid]).

    A hierarchy is immutable after {!build} and may be shared freely
    across domains; all solve-time scratch lives in a per-call
    {!workspace}. *)

type t
(** An immutable multigrid hierarchy. *)

val build :
  fine:Sparse.t ->
  nx:int -> ny:int -> nz:int ->
  assemble:(nx:int -> ny:int -> Sparse.t) ->
  unit -> t
(** [build ~fine ~nx ~ny ~nz ~assemble ()] constructs the hierarchy for
    the SPD matrix [fine] of dimension [nx * ny * nz] (x-major per layer,
    as in [Mesh.node_index]). Lateral dimensions are halved (rounding up)
    until either drops to 4 or below; each coarser operator is
    [assemble ~nx ~ny] and the coarsest is factored with dense Cholesky.
    A 40 x 40 surface grid yields levels 40, 20, 10, 5, 3.

    Raises [Invalid_argument] on a dimension mismatch, a non-positive
    diagonal entry on any level, or a degenerate hierarchy whose coarsest
    level is still too large to densify (> 4096 nodes); [Failure] if a
    level is not positive definite (from the Cholesky factorization).

    Records the level count in the [thermal.mg.levels] gauge. *)

val fine_dim : t -> int
(** Dimension of the finest-level system. *)

val num_levels : t -> int

type workspace
(** Mutable per-solve scratch (one set of vectors per level). Hierarchies
    are shared between concurrent solves; workspaces must not be. *)

val workspace : t -> workspace

val apply : t -> workspace -> float array -> float array -> unit
(** [apply t ws r z] runs one V(1,1)-cycle on [A z = r] from a zero
    initial guess and writes the result to [z] — the preconditioner
    application [z <- M^-1 r]. Every call bumps the [thermal.mg.cycles]
    counter; when {!Obs.Metrics} is enabled the pre-restriction residual
    norm of each level lands in the [thermal.mg.level<i>.residual]
    histograms. All kernels run sequentially, so results are
    bit-identical across pool sizes. *)
