(** Conjugate gradients with diagonal (Jacobi) scaling, for SPD systems.

    At steady state the paper's SPICE netlist of resistors, current sources
    and voltage sources reduces to the linear system [G T = P] with an SPD
    conductance matrix; CG computes the identical operating point. Flow
    solves are modal ([Mesh.solve_result]); CG is the path the solver
    faults ([Robust.Faults.Cg_stall], [Perturb_matrix]) target, and the
    tests' iterative reference, which shares no transform with the modal
    engine or the blur. *)

type outcome = {
  x : float array;
  iterations : int;
  residual : float;  (** final ||b - A x|| / ||b|| *)
  converged : bool;
  breakdown : string option;
  (** [Some reason] when the iteration was cut short by a detected
      breakdown — non-positive curvature (pAp <= 0: the matrix is not
      SPD), a vanishing or non-finite rho, a non-finite residual, or a
      residual that stagnated/diverged for a long window. The guard
      fires {e before} the offending division, so [x] is always finite:
      either the best iterate reached or the zero start vector. *)
}

val default_tol : float
(** 1e-10 relative — the single convergence default shared by {!solve}
    and [Mesh.solve]. *)

(** {1 Convergence telemetry}

    Every solve records its per-iteration relative residual trajectory
    into a bounded per-solve buffer (stride-doubling downsample, at most
    {!residual_log_capacity} points whatever the iteration count) and
    publishes the finished history into a process-global ring holding
    the last {!history_ring_capacity} solves — escalation retries
    included, each tagged with its label. The CLI report's
    ["convergence"] section is {!histories_json}. *)

type history = {
  h_label : string;
  (** ["jacobi"] for a plain solve, ["esc:restart"] for the escalation
      retry *)
  h_iterations : int;
  h_converged : bool;
  h_breakdown : string option;
  h_stride : int;
  (** residuals were retained every [h_stride]-th iteration *)
  h_residuals : float array;
  (** relative residuals, oldest first; index [i] is iteration
      [i * h_stride] *)
}

val residual_log_capacity : int
val history_ring_capacity : int

val recent_histories : unit -> history list
(** The ring contents, oldest first (thread-safe). *)

val clear_histories : unit -> unit

val histories_json : unit -> Obs.Json.t
(** {!recent_histories} as a JSON list of
    [{"label","iterations","converged","breakdown","residual_stride",
      "residuals"}]. *)

val solve : Stencil.t -> b:float array -> ?tol:float -> ?max_iter:int ->
  unit -> outcome
(** CG from the zero vector under diagonal (Jacobi) scaling. Defaults:
    [tol] {!default_tol}, [max_iter] 4 * dim. Raises [Invalid_argument]
    on dimension mismatch or a non-positive diagonal entry (the scaling
    needs positivity, and a thermal conductance operator always
    satisfies it).

    Telemetry: every solve records [thermal.cg.iterations] and
    [thermal.cg.residual] observations and bumps the [thermal.cg.solves]
    counter in {!Obs.Metrics}. A solve that exits at [max_iter] without
    converging bumps [thermal.cg.nonconverged] and emits an {!Obs.Log}
    warning, so silent max-iter exits cannot masquerade as valid
    temperatures in sweeps; a detected breakdown additionally bumps
    [thermal.cg.breakdown]. The solve body runs under a
    ["thermal.cg.solve"] trace span.

    Fault injection: an armed {!Robust.Faults.Cg_stall} makes the next
    solve return immediately with [converged = false] and the zero start
    vector as [x] — used by tests and the fault-injection harness to
    exercise the escalation retry. *)

type status =
  | Clean       (** the first attempt converged *)
  | Recovered   (** the first attempt failed and the retry converged *)
  | Degraded    (** both failed; the outcome is best-effort *)

type escalation = {
  esc_outcome : outcome;
  esc_status : status;
  esc_rungs : string list;
  (** [["restart"]] when the first attempt failed and was retried; [[]]
      when it converged *)
}

val solve_escalating : Stencil.t -> b:float array -> unit -> escalation
(** {!solve} to {!default_tol} within 4 * dim iterations, with one
    recovery path: a failed first attempt (breakdown or max-iter exit)
    is retried once, from the zero vector, at four times that budget
    (labelled ["esc:restart"] in the history ring). Where the retry
    converges within the first budget its result is bit for bit a plain
    {!solve}'s. A converged retry is [Recovered]; otherwise the
    better-residual outcome is returned with [Degraded] and the caller
    decides whether that is an error.

    Telemetry: a failed first attempt bumps [thermal.cg.escalations], and
    the retry's outcome [thermal.cg.escalation.recovered] or
    [thermal.cg.escalation.degraded]. *)
