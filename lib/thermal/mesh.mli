(** The 3-D thermal RC network and its solution.

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

val build : config -> power:Geo.Grid.t -> problem
(** [power] is a W-per-tile grid whose extent is the die footprint and
    whose dimensions must equal [nx] x [ny]. The operator depends only on
    the config and the grid extent — power enters through the right-hand
    side alone — and building it is O(layers): {!operator}'s per-layer
    couplings and diagonal table. Traced as [thermal.mesh.build].

    Fault hook: an armed {!Robust.Faults.Perturb_matrix} poisons this
    build's operator — layer 0's lateral couplings become NaN, the
    diagonal is left alone — so the solve fails through CG's breakdown
    guards and [Checks.mesh_matrix] reports it. Derived operators
    ({!operator}) never consume it. *)

val operator : config -> extent:Geo.Rect.t -> Stencil.t
(** The fault-free conductance operator of a config on a die extent. For
    derived operators — [Transient]'s backward-Euler shift and the
    coarse multigrid levels — that rediscretize the same stack without
    consuming faults aimed at the primary solve path. *)

val stencil : problem -> Stencil.t
val rhs : problem -> float array
val config : problem -> config
val extent : problem -> Geo.Rect.t

val with_rhs : problem -> float array -> problem
(** The same problem (operator, multigrid hierarchy and blur transfer
    shared) with a custom right-hand side — how the adjoint solve injects
    the objective gradient as a source term into the same SPD operator.
    Raises [Invalid_argument] on a dimension mismatch. *)

val multigrid : problem -> Multigrid.t
(** The geometric multigrid hierarchy for this problem's operator, built
    on first use and kept on the problem (and its {!with_rhs} copies).
    Coarse levels are fault-free {!operator}s of the same stack and
    extent at halved lateral resolution. *)

type precond_choice = Pc_mg
(** The one solver every flow-level solve runs: CG preconditioned by the
    problem's {!multigrid} hierarchy, what {!solve_result} runs when no
    [?precond] is given. Nothing in the library reads it; it is kept so
    callers that still name the solver
    ([Experiment.test_set_1 ~precond:Pc_mg]) compile. *)

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
(** Defaults: [tol] {!Cg.default_tol}, [precond] [Cg.Multigrid] over this
    problem's {!multigrid} hierarchy (built on first use, outside the
    [thermal.solve] span), [max_iter] / [x0] as in {!Cg.solve}. An
    explicit [?precond] ([Cg.Jacobi], [Cg.Ssor]) is a reference solve for
    tests. Passing [x0] warm-starts CG from a previous temperature field
    (the optimizer seeds candidate solves with the incumbent solution).

    The solve runs through {!Cg.solve_escalating}: a first-attempt
    failure is retried down the Jacobi / SSOR / restart ladder, a
    recovery is logged as a warning and recorded in [cg_rungs], and only
    when every rung fails does this return
    [Error (Solver_diverged { rungs; _ })] with the full attempt list. *)

val solve : ?tol:float -> ?max_iter:int -> ?precond:Cg.precond ->
  ?x0:float array -> problem -> solution
(** {!solve_result}, raising [Robust.Error.Error (Solver_diverged _)]
    instead of returning [Error]. Never observed on a valid stack; guards
    against operator bugs and injected faults. *)

val node_index : config -> ix:int -> iy:int -> iz:int -> int

val layer_grid : solution -> iz:int -> Geo.Grid.t
(** Temperature-rise map of one layer over the die extent. *)

val active_layer_grid : solution -> Geo.Grid.t
(** The thermal map of the paper's figures: the power-injection layer. *)

val blur_exact : config -> bool
(** Whether {!blur} is defined for this config: the side walls are
    adiabatic ([h_side_w_m2k = 0]) and the stack grounds its top or its
    bottom face. A side wall grounds boundary tiles the lateral modes do
    not see, and a die with neither face grounded has no heat path for
    its uniform mode; only the exact solve handles those stacks. *)

val blur : problem -> Blur.t
(** The power-blurring kernel for this problem's mesh: the modal transfer
    of the stack on the die's DCT-II basis (see {!Blur}). For each
    lateral mode it is the power-layer diagonal entry of the inverse of
    one nz x nz tridiagonal system, computed in closed form from the same
    per-layer conductances the stencil is built from — no solve runs and
    no preconditioner is involved — so it is exact, never an estimate.
    Computed on first use, O(nx ny nz), and kept on the problem next to
    the multigrid hierarchy. Traced as [thermal.blur.characterize].
    Raises [Invalid_argument] unless {!blur_exact}. *)
