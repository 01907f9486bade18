(** Geometric multigrid for the layered thermal mesh.

    The RC conductance system is solved on an [nx] x [ny] x [nz] grid whose
    lateral resolution grows with the die while the layer count stays fixed
    (the paper's stack has nine layers at every grid size). The hierarchy
    therefore coarsens the x-y surface grid only — full-weighting
    restriction and cell-centered bilinear prolongation act per layer, the
    z direction is never coarsened — with damped-Jacobi or SSOR smoothing
    on every level and a dense Cholesky solve on the coarsest one. Coarse
    operators are geometric rediscretizations of the same stack at halved
    lateral resolution (supplied by the caller through [assemble]), not
    Galerkin products, which keeps hierarchy construction O(n).

    One V-cycle with symmetric smoothing and restriction proportional to
    the prolongation transpose is a fixed symmetric positive-definite
    operator, so {!apply} is a valid CG preconditioner
    ([Cg.Multigrid]) as well as the step of the standalone {!solve}.

    A hierarchy is immutable after {!build} and may be shared freely
    across domains; all solve-time scratch lives in a per-call
    {!workspace}. *)

type smoother =
  | Damped_jacobi of float
  (** weighted point-Jacobi sweeps; the payload is the damping factor in
      (0, 1] (0.8 is the textbook choice for 7-point stencils) *)
  | Ssor of float
  (** symmetric SOR sweeps with omega in (0, 2); stronger than Jacobi on
      the mesh stencil and the default ([Ssor 1.0]) *)

type t
(** An immutable multigrid hierarchy. *)

val build :
  fine:Sparse.t ->
  nx:int -> ny:int -> nz:int ->
  ?smoother:smoother ->
  assemble:(nx:int -> ny:int -> Sparse.t) ->
  unit -> t
(** [build ~fine ~nx ~ny ~nz ~assemble ()] constructs the hierarchy for
    the SPD matrix [fine] of dimension [nx * ny * nz] (x-major per layer,
    as in [Mesh.node_index]). Lateral dimensions are halved (rounding up)
    until either drops to 4 or below; each coarser operator is
    [assemble ~nx ~ny] and the coarsest is factored with dense Cholesky.
    A 40 x 40 surface grid yields levels 40, 20, 10, 5, 3.

    Raises [Invalid_argument] on a dimension mismatch, a smoother
    parameter out of range, a non-positive diagonal entry on any level,
    or a degenerate hierarchy whose coarsest level is still too large to
    densify (> 4096 nodes); [Failure] if a level is not positive
    definite (from the Cholesky factorization).

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

type outcome = {
  x : float array;
  cycles : int;
  residual : float;   (** final ||b - A x|| / ||b|| *)
  converged : bool;
}

val default_tol : float
(** 1e-10 relative, matching [Cg.default_tol]. *)

val solve : t -> b:float array -> ?tol:float -> ?max_cycles:int ->
  ?x0:float array -> unit -> outcome
(** Standalone V-cycle iteration: repeat [x <- x + M^-1 (b - A x)] until
    the relative residual drops below [tol] (default {!default_tol}) or
    [max_cycles] (default 200) cycles have run. The layered stack is
    strongly anisotropic (vertical conductances dwarf lateral ones) and
    the hierarchy coarsens x-y only, so the standalone iteration
    contracts slowly compared to its use as a CG preconditioner — the
    generous default absorbs that. Bumps [thermal.mg.solves]
    and records the cycle count in the [thermal.mg.solve.cycles]
    histogram. Runs under a ["thermal.mg.solve"] trace span. *)
