(** Geometric multigrid for the layered thermal mesh.

    The RC conductance system is solved on an [nx] x [ny] x [nz] grid whose
    lateral resolution grows with the die while the layer count stays fixed
    (the paper's stack has nine layers at every grid size). The hierarchy
    therefore coarsens the x-y surface grid only — full-weighting
    restriction and cell-centered bilinear prolongation act per layer, the
    z direction is never coarsened — with a dense Cholesky solve on the
    coarsest level. Coarse operators are geometric rediscretizations of
    the same stack at halved lateral resolution (supplied by the caller
    through [coarse]), not Galerkin products, so a level costs O(layers)
    to set up.

    The smoother is z-line symmetric Gauss-Seidel, one sweep before and
    one after the coarse correction on every other level. Layers are a few
    µm thick under tiles tens of µm wide, so vertical conductances exceed
    lateral ones by (dx/dz)^2, up to a few hundred times on coarse levels;
    point smoothing stalls on that anisotropy, so each vertical column's
    tridiagonal block is solved exactly instead. The sweep visits the
    columns in (iy, ix) order and then in exact reverse order.

    Each smoothed level is its {!Stencil.t} plus the Thomas factorization
    of its z columns as inverse pivots. A column's pivots depend only on
    its x and y boundary classes, so they are stored per (class, layer)
    like the stencil's diagonal (the modified super-diagonal, the z+
    coupling times the inverse pivot, is recomputed where it is used). No
    level keeps per-node coefficients; the coarsest keeps only its
    Cholesky factor.

    One V-cycle with symmetric smoothing and restriction proportional to
    the prolongation transpose is a fixed symmetric positive-definite
    operator, so {!apply} is a valid CG preconditioner ([Cg.Multigrid]).

    A hierarchy is immutable after {!build} and may be shared freely
    across domains; all solve-time scratch lives in a per-call
    {!workspace}. *)

type t
(** An immutable multigrid hierarchy. *)

val build :
  fine:Stencil.t -> coarse:(nx:int -> ny:int -> Stencil.t) -> unit -> t
(** [build ~fine ~coarse ()] constructs the hierarchy for the SPD
    operator [fine]. Lateral dimensions are halved (rounding up) until
    either drops to 4 or below; each coarser operator is [coarse ~nx ~ny]
    and the coarsest is factored with dense Cholesky. A 40 x 40 surface
    grid yields levels 40, 20, 10, 5, 3.

    Raises [Invalid_argument] when a coarse operator has the wrong
    dimensions, on a non-positive (or NaN) column pivot on a smoothed
    level — the message names the level and the first node of the
    failing column class, and a non-positive diagonal entry shows up
    this way too — or a degenerate hierarchy whose coarsest level is
    still too large to densify (> 4096 nodes); [Failure] if the coarsest
    level is not positive definite (from the Cholesky factorization).
    Because every pivot is checked here, {!apply} never divides by a zero
    or negative pivot, so an indefinite column fails loudly at build time
    instead of turning into NaN.

    Records the level count in the [thermal.mg.levels] gauge. *)

val fine_dim : t -> int
(** Dimension of the finest-level system. *)

val num_levels : t -> int

type workspace
(** Mutable per-solve scratch (one set of five vectors per level).
    Hierarchies are shared between concurrent solves; workspaces must not
    be. *)

val workspace : t -> workspace

val apply : t -> workspace -> float array -> float array -> unit
(** [apply t ws r z] runs one V(1,1)-cycle on [A z = r] from a zero
    initial guess and writes the result to [z] — the preconditioner
    application [z <- M^-1 r]. Every call bumps the [thermal.mg.cycles]
    counter; when {!Obs.Metrics} is enabled the pre-restriction residual
    norm of each level lands in the [thermal.mg.level<i>.residual]
    histograms. All kernels run sequentially, so results are
    bit-identical across pool sizes.

    [apply] allocates no vector: every level's scratch, the smoother's
    included, lives in [ws], and the coarsest solve writes into it. What
    a call does allocate is the metrics bookkeeping, a few words per level
    and independent of the mesh size. *)
