(** The 3-D thermal RC network and its solution.

    The die footprint is tiled [nx] x [ny] per layer (the paper's grid is
    40 x 40 x 9 = 14400 cells); each thermal cell couples to its six
    neighbours through series half-cell resistances, boundary faces couple
    to the ambient reference through the stack's effective top and bottom
    conductances (the side walls are adiabatic), and the power map
    injects current into the active layer. Temperatures are kelvins of
    rise over ambient. *)

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
    side alone — and building it is O(layers): the stencil's per-layer
    couplings and diagonal table. Raises [Invalid_argument] when the
    stack fails {!Stack.validate} or the grid does not match. Traced as
    [thermal.mesh.build].

    Fault hook: an armed {!Robust.Faults.Perturb_matrix} poisons this
    build's operator — layer 0's lateral couplings become NaN, the
    diagonal is left alone — so the solve fails through CG's breakdown
    guards and [Checks.mesh_matrix] reports it. The build consumes the
    fault, so the problem remembers it: every solve of a poisoned
    problem (and of its {!with_rhs} and {!shifted} copies) takes the CG
    path, never the modal engine, which would solve the unpoisoned
    conductances cleanly. *)

val stencil : problem -> Stencil.t
val rhs : problem -> float array
val config : problem -> config
val extent : problem -> Geo.Rect.t

val with_rhs : problem -> float array -> problem
(** The same problem (operator shared) with a custom right-hand side —
    how the adjoint solve injects the objective gradient as a source
    term into the same SPD operator. Raises [Invalid_argument] on a
    dimension mismatch. *)

val shifted : problem -> w_m2k:float array -> problem
(** The same problem with every tile of layer [iz] also grounded through
    [w_m2k.(iz)] W/(m^2 K) times its tile area: the backward-Euler
    operator [G + C/dt] when [w_m2k.(iz)] is layer [iz]'s heat capacity
    per unit area over the step. The shift enters the stencil (added to
    each diagonal entry last, as {!Stencil.shift} does) and the modal
    engine's per-layer grounds, so {!solve_result} takes the same engine
    rule on it; a non-negative shift keeps the operator SPD. Shifts add
    up. The result is poisoned when [problem] is. Raises
    [Invalid_argument] unless there is one value per layer. *)

type precond_choice = Pc_mg
(** Nothing in the library reads it: the solver is not a choice
    ({!solve_result}). It is kept so callers that still name it
    ([Experiment.test_set_1 ~precond:Pc_mg]) compile. *)

type solution = {
  config : config;
  extent : Geo.Rect.t;
  temp : float array;
  (** node temperature rises over every layer, x-major per layer
      ({!node_index}) *)
  cg_iterations : int;      (** CG iterations; [0] for a modal solve *)
  cg_residual : float;
  (** the measured relative residual [||b - A x|| / ||b||] of [temp]
      ([0] for a zero right-hand side), from either engine *)
  cg_rungs : string list;
  (** [["restart"]] when CG's cold-Jacobi retry produced this solution;
      [[]] for a clean first-attempt convergence and for a modal solve *)
}

val solve_result : problem -> (solution, Robust.Error.t) result
(** The steady-state solve, modal unless a solver fault is in play:

    - {b Modal.} Every valid stack is block-diagonal on the die's DCT-II
      basis, so the solve is {!Modal.solve}: a 2-D DCT of each layer's
      right-hand side (skipped for an all-zero layer), one nz x nz
      tridiagonal solve per lateral mode and the inverse transforms,
      built from the same per-layer conductances as the stencil and the
      blur. It is exact to rounding: [cg_iterations] is [0], [cg_rungs]
      [[]] and [cg_residual] is measured with one {!Stencil.mul}. Traced
      as a [thermal.modal.solve] span under [thermal.solve] and counted
      in [thermal.modal.solves]; a {!Robust.Cancel.check} follows it.
    - {b Jacobi-CG.} When the build was poisoned (see {!build}), a
      {!Robust.Faults.Cg_stall} is armed (the one armed fault aimed at
      the solve; [Kill_worker] targets the pool and does not route) or
      the modal result's measured residual is not finite (a NaN or
      infinite source), the solve is {!Cg.solve_escalating} on the
      stencil from a zero start to {!Cg.default_tol}: a first-attempt
      failure is retried once, cold, at four times the budget; a
      recovery is logged as a warning and recorded in [cg_rungs]
      ([["restart"]]), and only when the retry fails too does this
      return
      [Error (Solver_diverged { rungs = ["requested"; "restart"]; _ })].

    This is the only place that decides when CG runs. *)

val solve : problem -> solution
(** {!solve_result}, raising [Robust.Error.Error (Solver_diverged _)]
    instead of returning [Error]. Never observed on a valid stack; guards
    against operator bugs and injected faults. *)

val node_index : config -> ix:int -> iy:int -> iz:int -> int

val layer_grid : solution -> iz:int -> Geo.Grid.t
(** Temperature-rise map of one layer over the die extent. *)

val active_layer_grid : solution -> Geo.Grid.t
(** The thermal map of the paper's figures: the power-injection layer. *)

val blur : config -> extent:Geo.Rect.t -> Blur.t
(** The power-blurring kernel of the config's mesh on a die extent: the
    modal transfer of the stack on the die's DCT-II basis (see {!Blur}).
    For each lateral mode it is the power-layer diagonal entry of the
    inverse of one nz x nz tridiagonal system, computed in closed form
    from the same per-layer conductances the stencil is built from — no
    solve runs and no problem is built — so it is exact, never an
    estimate, and no fault can reach it. O(nx ny nz) per call; nothing
    is cached. Traced as [thermal.blur.characterize]. Raises
    [Invalid_argument] when the stack fails {!Stack.validate}. *)
