(** The die's DCT-II basis and the steady-state solve it makes exact
    (Kemper et al.'s ultrafast temperature profile, without the
    approximation).

    With adiabatic side walls each layer's lateral stencil is a free-end
    path Laplacian per axis, and the DCT-II diagonalizes it exactly:
    mode k of an n-point path has eigenvalue 2 (1 - cos(pi k / n)) and
    eigenvector cos(pi k (2j + 1) / 2n). The stack's conductances are
    uniform per layer, so every lateral mode (kx, ky) of the whole
    nx x ny x nz network decouples into one nz x nz tridiagonal system.
    A steady solve is then a 2-D DCT of each layer's right-hand side,
    one tridiagonal solve per mode, and the inverse transforms: exact to
    rounding, with no iteration and no tolerance.

    Layouts: a layer is nx x ny, x-major ([Mesh.node_index] order); a
    spectrum is kx-major, mode (kx, ky) at [kx * ny + ky]. This is the
    one transform pipeline: {!Blur} runs it on the power layer alone
    with a diagonal product in place of the tridiagonal solves. *)

val eigenvalue : int -> int -> float
(** [eigenvalue n k] of mode [k] of the [n]-point free-end path
    Laplacian: 2 (1 - cos(pi k / n)), [0] for the uniform mode and below
    [4]. *)

val forward : nx:int -> ny:int -> float array -> float array -> unit
(** [forward ~nx ~ny a b] writes the 2-D DCT-II of the x-major layer [a]
    into [b], kx-major: DCT rows along x in [a] (which it overwrites), a
    transpose into [b], DCT rows along y in [b]. Both arrays hold
    [nx * ny] values. *)

val inverse : nx:int -> ny:int -> float array -> float array -> unit
(** [inverse ~nx ~ny b a], the exact inverse of {!forward}: the x-major
    layer of the kx-major spectrum [b] (which it overwrites) into [a]. *)

val solve :
  nx:int -> ny:int -> face:float array -> g_x:float array ->
  g_y:float array -> g_v:float array -> float array -> float array
(** [solve ~nx ~ny ~face ~g_x ~g_y ~g_v rhs] is the temperature field of
    the adiabatic-walled stack whose layer [iz] couples every tile to its
    lateral neighbours through [g_x.(iz)] and [g_y.(iz)], to the tile
    above through [g_v.(iz)] ([nz - 1] entries) and to ground through
    [face.(iz)] per tile, for the nodal sources [rhs] (nz layers of
    nx x ny, x-major). In mode (kx, ky), with eigenvalues lx and ly, the
    system's diagonal is [face + g_x lx + g_y ly] plus the vertical
    couplings below and above, and its off-diagonals are [-g_v]; it is
    eliminated bottom-up as conductances in series and back-substituted.
    A layer whose sources are all zero skips its forward transform.

    The operator must be nonsingular: a mode whose column has no path to
    ground (every [face] zero) divides by zero. Raises
    [Invalid_argument] on an empty grid or mismatched lengths. *)
