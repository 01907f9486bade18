(** Transient thermal analysis (backward Euler on the full RC network).

    The paper argues for steady-state analysis: "the thermal time constant
    is in the order of tens of milliseconds, which is much larger than the
    clock periods in nanoseconds... we can neglect transient currents and
    solve the equation at the steady state". This module keeps the
    capacitors the steady-state solve discards and integrates
    [C dT/dt + G T = P], so that claim can be *checked* instead of assumed:
    the step-response time constant of the default stack comes out at tens
    of microseconds to milliseconds, 10^4-10^7 clock cycles at 1 GHz. *)

type material = {
  volumetric_heat_j_m3k : float;
  (** volumetric heat capacity rho*c_p; silicon ~1.6e6 J/(m^3 K) *)
}

val default_capacitance : material
(** A single effective volumetric heat capacity for all layers (the layer
    thicknesses already dominate the per-layer differences). *)

type response = {
  times_s : float array;        (** sample instants *)
  peak_rise_k : float array;    (** peak rise at each instant *)
  steady_peak_k : float;        (** the steady-state solve's peak *)
  tau_63_s : float;             (** time to reach 63.2% of steady peak *)
}

val step_response :
  Mesh.config -> power:Geo.Grid.t -> ?material:material -> ?dt_s:float ->
  ?steps:int -> unit -> response
(** Apply the power map as a step at t=0 from ambient and integrate.
    Defaults: [dt_s] 2e-6, [steps] 60 (covering ~0.12 ms).

    The steady-state normalization is {!Mesh.solve} of the problem, and
    each implicit step [(G + C/dt) T' = P + (C/dt) T] is {!Mesh.solve}
    of one {!Mesh.shifted} problem for the whole window (every tile of
    layer [iz] grounded through its heat capacity over [dt]) with the
    step's right-hand side ({!Mesh.with_rhs}). Every solve so takes
    {!Mesh.solve_result}'s engine rule: modal when no solver fault is in
    play, Jacobi-CG on the shifted stencil otherwise. Counter:
    [thermal.transient.steps]. *)
