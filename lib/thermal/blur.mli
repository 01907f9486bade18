(** Green's-function power blurring (Kemper et al., "Ultrafast
    Temperature Profile Calculation in IC Chips"), sharpened into an
    exact modal transfer: for the linear steady-state RC network the
    active-layer temperature rise is a linear function of the power map,
    and on the die's own DCT-II basis that function is diagonal. Every
    candidate power map then costs two 2-D DCTs ({!Modal.forward} and
    {!Modal.inverse}) instead of a solve.

    The die walls are adiabatic ({!Stack}) and the stack's conductances
    are uniform per layer, so each lateral mode (kx, ky) decouples into
    one small vertical system ({!Modal}), and the transfer G(kx, ky) is
    the power-layer response of that system ({!Mesh.blur} computes it
    in closed form from a mesh config and a die extent: it depends on no
    power map). The blur is the one-layer case of {!Modal}'s transform
    pipeline, with a diagonal product where {!Modal.solve} runs one
    tridiagonal solve per mode. Evaluation is T = IDCT(G * DCT(P)) on
    the nx x ny die itself — no mirror extension, no padding — and
    matches full solves of the discrete operator to rounding, not just
    to a screening tolerance.

    A [t] is immutable and safe to share across pool workers; an
    evaluation allocates two nx * ny arrays plus per-batch transform
    scratch. *)

type t

val of_modes :
  nx:int -> ny:int -> extent:Geo.Rect.t ->
  transfer:(lx:float -> ly:float -> float) -> t
(** The blur of an [nx] x [ny] die over [extent] whose modal transfer at
    lateral mode (kx, ky) is [transfer ~lx ~ly], where [lx] and [ly] are
    the mode's eigenvalues of the free-end path Laplacian along x and y
    (2 (1 - cos(pi k / n)), so [0] for the uniform mode and below [4]).
    Bumps [thermal.blur.kernels]. Raises [Invalid_argument] on an empty
    grid. *)

val nx : t -> int
val ny : t -> int
val extent : t -> Geo.Rect.t

val field : t -> power:Geo.Grid.t -> Geo.Grid.t
(** Temperature-rise field for [power] (same dims as the blur, checked).
    One forward and one inverse 2-D DCT, traced as the
    [thermal.blur.eval] span. *)

val peak : t -> power:Geo.Grid.t -> float
(** Maximum of {!field} without materializing the grid. *)
