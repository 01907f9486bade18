(** Adjoint sensitivity of a smoothed peak-temperature objective.

    The steady-state thermal solve is linear ([G T = P]) with an SPD
    conductance matrix, so for a differentiable objective [f(T)] the
    sensitivity to the power map is one extra solve of the {e same}
    system: [df/dP = G^-T (df/dT)] and [G^T = G]. The adjoint solve
    reuses the problem's operator via {!Mesh.with_rhs}.

    The objective is a log-sum-exp smoothing of the active-layer peak,
    [f(T) = (1/beta) log sum exp(beta T_i)]: an upper bound on the true
    peak that tightens as the sharpness [beta] grows ([f - max <=
    ln(nx*ny)/beta]), with the softmax distribution over hot tiles as its
    gradient. The resulting per-tile map is [d f / d (W injected in the
    tile)] in K/W — where removing (or not adding) power buys the most
    peak temperature, the signal that guides the optimizer's
    [Guide_gradient] mode. *)

val default_sharpness : float
(** 4.0 per kelvin — smoothing gap [ln(nx*ny)/beta] under ~2 K at the
    paper's 40 x 40 grid while keeping the objective curvature (and
    hence finite-difference validation error) moderate. *)

type t = {
  forward : Mesh.solution;        (** the forward solve differentiated *)
  sharpness : float;              (** beta actually used, 1/K *)
  peak_rise_k : float;            (** true active-layer peak of [forward] *)
  smoothed_peak_k : float;        (** f(T) — peak plus the smoothing gap *)
  lambda : float array;  (** full adjoint field over every mesh node *)
  sensitivity : Geo.Grid.t;
  (** per-tile [df/d(power)] in K/W: [lambda] restricted to the power
      layer, on the die extent *)
  cg_iterations : int;
  (** CG iterations of the adjoint solve; [0] when it was modal *)
}

val smoothed_peak : sharpness:float -> Mesh.solution -> float
(** The objective alone (stabilized log-sum-exp over the active layer) —
    exposed so finite-difference validation can evaluate perturbed
    forward solves with exactly the smoothing the adjoint
    differentiates. Raises [Invalid_argument] unless [sharpness > 0]. *)

val solve_result :
  ?sharpness:float -> ?forward:Mesh.solution -> Mesh.problem ->
  (t, Robust.Error.t) result
(** Differentiate the smoothed peak of [problem]'s solution. Runs the
    forward solve unless [?forward] supplies one already computed (the
    optimizer reuses its incumbent solution; dimensions are validated),
    then one adjoint solve of the same matrix with the objective
    gradient as source. Both solves go through {!Mesh.solve_result}, so
    they take its engine rule: the modal solve when no solver fault is
    in play (exact; [cg_iterations] is [0]), Jacobi-CG otherwise, with
    its cold retry and structured errors.
    Telemetry: [thermal.adjoint.solves], [thermal.adjoint.iterations],
    [thermal.adjoint.peak_sensitivity_k_per_w] and
    [thermal.adjoint.smoothing_gap_k] in {!Obs.Metrics}, under a
    ["thermal.adjoint.solve"] trace span.

    Raises [Invalid_argument] on a non-positive sharpness or a
    mismatched [?forward]. *)

val solve :
  ?sharpness:float -> ?forward:Mesh.solution -> Mesh.problem -> t
(** {!solve_result}, raising [Robust.Error.Error] on solver failure. *)
