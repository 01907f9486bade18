(** The vertical material stack of the thermal model.

    Following the paper, the z direction is discretized into 9 layers with
    per-layer thermal conductivities (ballpark values after Sato et al.,
    ASP-DAC'05); heat leaves through the top and bottom faces' effective
    conductances, which stand in for the package and heat sink. The side
    walls are adiabatic: with one conductivity per layer and no side-wall
    ground, every lateral mode of the die's DCT-II basis decouples, which
    is what {!Modal} and {!Blur} solve exactly. The defaults are
    calibrated so that a ~12k-cell 65 nm die shows peak rises of a few to
    ~25 kelvin with hotspot features of a few tens of µm — the regime of
    the paper's experiments (see DESIGN.md). *)

type layer = {
  layer_name : string;
  thickness_um : float;
  conductivity_w_mk : float;  (** W/(m·K) *)
}

type t = {
  layers : layer array;       (** bottom (board side) to top (sink side) *)
  power_layer : int;          (** index of the active-silicon layer *)
  h_top_w_m2k : float;        (** effective sink conductance per die area *)
  h_bottom_w_m2k : float;     (** board-side conductance per area *)
}

val default_9layer : t
(** underfill, two metal/ILD layers, active silicon, three bulk-silicon
    layers, TIM, heat spreader. *)

val with_sink : t -> h_top_w_m2k:float -> t
(** Package variant: same stack, different heat-removal capability — the
    paper notes the profile depends strongly on this. *)

val num_layers : t -> int
val total_thickness_um : t -> float
val validate : t -> (unit, string) result
(** [Ok ()] for a non-empty stack with its power layer in range, positive
    layer thicknesses and conductivities, and a grounded top or bottom
    face: the face gives every lateral mode, the uniform one included, a
    path to ambient. *)
