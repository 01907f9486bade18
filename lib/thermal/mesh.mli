(** Assembly and solution of the 3-D thermal RC network.

    The die footprint is tiled [nx] x [ny] per layer (the paper's grid is
    40 x 40 x 9 = 14400 cells); each thermal cell couples to its six
    neighbours through series half-cell resistances, boundary faces couple
    to the ambient reference through the stack's effective conductances,
    and the power map injects current into the active layer. Temperatures
    are kelvins of rise over ambient. *)

type config = {
  nx : int;
  ny : int;
  stack : Stack.t;
}

val default_config : config
(** 40 x 40 over {!Stack.default_9layer}. *)

type problem

val build : ?cache:bool -> config -> power:Geo.Grid.t -> problem
(** [power] is a W-per-tile grid whose extent is the die footprint and
    whose dimensions must equal [nx] x [ny].

    The conductance matrix depends only on the config and the grid extent
    — power enters through the right-hand side alone — so assembled
    matrices are kept in an 8-entry MRU cache keyed by (config, extent)
    and shared between problems (the rhs is always rebuilt). [~cache:false]
    bypasses the cache and assembles fresh. Lookups bump the
    [thermal.mesh.cache.hits] / [thermal.mesh.cache.misses] counters in
    {!Obs.Metrics}; an insert into a full cache drops the
    least-recently-used entry and bumps [thermal.mesh.cache.evictions].

    Cache hits are validated defensively: an entry whose matrix dimension
    disagrees with the requested mesh is evicted and reassembled (counted
    in [thermal.mesh.cache.stale], with a warning) instead of being
    handed to CG. Fault hooks: {!Robust.Faults.Stale_mesh_cache}
    substitutes a wrong-sized entry on the next hit to exercise that
    check; {!Robust.Faults.Perturb_matrix} injects an asymmetric spike
    into the next assembly — while it is armed the cache is bypassed
    entirely so the poisoned matrix is never published. *)

val cache_clear : unit -> unit
(** Drop every cached matrix (and the cold-iteration baselines, multigrid
    hierarchies and blur kernels that ride with them). Mainly for tests
    and benchmarks. *)

val matrix : problem -> Sparse.t
val rhs : problem -> float array
val config : problem -> config
val extent : problem -> Geo.Rect.t

val with_rhs : problem -> float array -> problem
(** The same problem (cached matrix, shared multigrid hierarchy and blur
    kernel) with a custom right-hand side — how the adjoint solve injects
    the objective gradient as a source term into the same SPD operator.
    Raises [Invalid_argument] on a dimension mismatch. *)

val assemble_raw : config -> extent:Geo.Rect.t -> Sparse.t
(** Fault-free, cache-free assembly of the conductance matrix alone. For
    derived operators ([Transient]'s backward-Euler shifted matrix and
    its coarse multigrid levels) that must rediscretize the same stack
    without consuming injected faults aimed at the primary solve path. *)

val multigrid : problem -> Multigrid.t
(** The geometric multigrid hierarchy for this problem's matrix, built on
    first use (coarse levels are fault-free rediscretizations of the same
    stack and extent at halved lateral resolution) and cached on the
    problem's cache entry, so repeated builds of the same (config, extent)
    mesh — an optimizer run, a sweep — construct it exactly once. *)

type precond_choice = Pc_jacobi | Pc_ssor of float | Pc_mg
(** A preconditioner selection that is plain data — CLI flags and
    [Flow] configuration carry this, and it is resolved against a
    concrete problem by {!precond_of_choice} (the multigrid variant needs
    the problem's hierarchy). *)

val precond_choice_name : precond_choice -> string
(** ["jacobi"], ["ssor"] or ["mg"] — for reports and config echoes. *)

val precond_of_choice : problem -> precond_choice -> Cg.precond
(** Resolve a choice against a problem; [Pc_mg] builds (or reuses) the
    problem's {!multigrid} hierarchy. *)

type solution = {
  config : config;
  extent : Geo.Rect.t;
  temp : float array;       (** node temperature rises, x-major per layer *)
  cg_iterations : int;
  cg_residual : float;
  cg_rungs : string list;
  (** escalation rungs CG went through to produce this solution; [[]]
      for a clean first-attempt convergence *)
}

val solve_result : ?tol:float -> ?max_iter:int -> ?precond:Cg.precond ->
  ?x0:float array -> problem -> (solution, Robust.Error.t) result
(** Defaults: [tol] {!Cg.default_tol}, [max_iter] / [precond] / [x0] as in
    {!Cg.solve}. Passing [x0] warm-starts CG from a previous temperature
    field (the optimizer seeds candidate solves with the incumbent
    solution); when the same cached matrix has also been solved cold, the
    iteration savings are recorded in the
    [thermal.mesh.warm.saved_iterations] histogram.

    The solve runs through {!Cg.solve_escalating}: a first-attempt
    failure is retried down the Jacobi / SSOR / restart ladder, a
    recovery is logged as a warning and recorded in [cg_rungs], and only
    when every rung fails does this return
    [Error (Solver_diverged { rungs; _ })] with the full attempt list. *)

val solve : ?tol:float -> ?max_iter:int -> ?precond:Cg.precond ->
  ?x0:float array -> problem -> solution
(** {!solve_result}, raising [Robust.Error.Error (Solver_diverged _)]
    instead of returning [Error]. Never observed on a valid stack; guards
    against assembly bugs and injected faults. *)

val node_index : config -> ix:int -> iy:int -> iz:int -> int

val layer_grid : solution -> iz:int -> Geo.Grid.t
(** Temperature-rise map of one layer over the die extent. *)

val active_layer_grid : solution -> Geo.Grid.t
(** The thermal map of the paper's figures: the power-injection layer. *)

val blur_defined : config -> bool
(** Whether {!blur} is defined for this config: the stack grounds its
    top or its bottom face. A die cooled through its side walls alone
    has no adiabatic modal transfer (its uniform mode has no heat path);
    only the exact solve handles it. *)

val blur : problem -> Blur.t
(** The power-blurring screening kernel for this problem's mesh: the
    modal transfer of the stack on the die's DCT-II basis (see {!Blur}).
    For each lateral mode it is the power-layer diagonal entry of the
    inverse of one nz x nz tridiagonal system, computed in closed form
    from the same per-layer conductances the matrix is assembled from —
    no solve runs and no preconditioner is involved. Exact for the
    adiabatic die; under non-zero side-wall conductance it is the
    adiabatic die's transfer and so an estimate. Cached on the problem's
    MRU entry next to the multigrid hierarchy, so an optimizer run
    computes it once per (config, extent) and every pool worker shares
    it. Traced as [thermal.blur.characterize]. Raises [Invalid_argument]
    unless {!blur_defined}. *)
