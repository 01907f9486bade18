(** Pure-OCaml complex FFT and real DCT-II. Every length whose prime
    factors are 2 and 5 (powers of two included) runs one mixed-radix
    Cooley-Tukey engine (Stockham autosort, radices 2 and 5), which
    covers the screening grids (20, 40, 160); any other length runs the
    Bluestein chirp-z transform, whose padded power-of-two convolution
    runs on the same engine. So arbitrary mesh extents (60x60, prime
    sizes) still transform exactly, with no dependency on the grid being
    a power of two.

    Complex transforms operate in place on split re/im arrays of equal
    length. The forward transform uses the e^{-2 pi i k n / N} kernel and
    is unnormalized; {!ifft} applies the 1/N factor, so
    [ifft (fft x) = x] to rounding. Twiddle tables and Bluestein chirps
    are memoized per length behind a mutex, so transforms are cheap to
    repeat and safe to run from pool workers.

    Each transform bumps one counter: [thermal.fft.radix2] for
    power-of-two lengths, [thermal.fft.mixed_radix] for the other
    2-5-smooth lengths and [thermal.fft.bluestein] for the rest
    (length-1 transforms are free and not counted).

    The DCT-II pair is the kernel under {!Blur}'s screening: it
    diagonalizes the adiabatic die's lateral stencil, so one candidate
    evaluation costs two 2-D DCTs. *)

val is_pow2 : int -> bool

val next_pow2 : int -> int
(** Smallest power of two >= the argument (>= 1). *)

val fft : re:float array -> im:float array -> unit
(** In-place forward DFT of any positive length. Raises
    [Invalid_argument] on empty or mismatched arrays. *)

val ifft : re:float array -> im:float array -> unit
(** In-place inverse DFT (normalized by 1/N). *)

val dct2_rows : n:int -> rows:int -> float array -> unit
(** [dct2_rows ~n ~rows a] replaces each of the [rows] contiguous
    length-[n] rows of [a] (row [r] at offset [r * n]) by its unnormalized
    DCT-II, X_k = sum_j x_j cos(pi k (2j + 1) / 2n). Makhoul's reorder
    (v_j = x_{2j}, v_{n-1-j} = x_{2j+1}, X_k = Re(e^{-i pi k / 2n} V_k))
    turns it into one length-[n] complex DFT per row. Any positive [n]
    works. Scratch is allocated once per call, not once per row.
    Raises [Invalid_argument] unless [Array.length a = n * rows]. *)

val idct2_rows : n:int -> rows:int -> float array -> unit
(** The exact inverse of {!dct2_rows}, row by row:
    x_j = (X_0 + 2 sum_{k>=1} X_k cos(pi k (2j + 1) / 2n)) / n. Same
    layout and validation. *)
