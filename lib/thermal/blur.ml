(* Modal transfer on the die's own DCT-II basis. Layouts:

   - logical grids are nx x ny, x-major (Geo.Grid order);
   - the die's lateral walls are adiabatic by default, so each layer's
     lateral stencil is a free-end path Laplacian per axis, which the
     DCT-II diagonalizes exactly: mode k of an n-point path has
     eigenvalue 2 (1 - cos(pi k / n)) and eigenvector
     cos(pi k (2j + 1) / 2n). The stack's conductances are uniform per
     layer, so every lateral mode decouples and the power-to-temperature
     map of the active layer is one scalar G(kx, ky) per mode;
   - an evaluation is T = IDCT(G * DCT(P)) with separable 2-D transforms:
     rows along x on the x-major array, a transpose, rows along y, the
     modal product, and the same steps back. The transfer is stored in
     the transposed (kx-major, [kx * ny + ky]) layout the product sees. *)

type t = {
  b_nx : int;
  b_ny : int;
  b_extent : Geo.Rect.t;
  b_transfer : float array; (* G(kx, ky) at kx * ny + ky *)
}

let nx t = t.b_nx
let ny t = t.b_ny
let extent t = t.b_extent

(* Eigenvalue of mode k of the n-point free-end path Laplacian. *)
let eigenvalue n k =
  2.0 *. (1.0 -. cos (Float.pi *. float_of_int k /. float_of_int n))

let of_modes ~nx ~ny ~extent ~transfer =
  if nx < 1 || ny < 1 then invalid_arg "Blur.of_modes: empty grid";
  let ly = Array.init ny (eigenvalue ny) in
  let g = Array.make (nx * ny) 0.0 in
  for kx = 0 to nx - 1 do
    let lx = eigenvalue nx kx in
    for ky = 0 to ny - 1 do
      g.((kx * ny) + ky) <- transfer ~lx ~ly:ly.(ky)
    done
  done;
  Obs.Metrics.count "thermal.blur.kernels";
  { b_nx = nx; b_ny = ny; b_extent = extent; b_transfer = g }

(* [b] := transpose of the [rows] x [cols] row-major [a]. *)
let transpose ~rows ~cols (a : float array) (b : float array) =
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      b.((c * rows) + r) <- a.((r * cols) + c)
    done
  done

(* The temperature rise of [power], x-major. Two nx * ny buffers are the
   only per-evaluation arrays besides the transforms' per-batch scratch,
   so a shared [t] can be evaluated concurrently from pool workers. *)
let apply t ~power =
  if Geo.Grid.nx power <> t.b_nx || Geo.Grid.ny power <> t.b_ny then
    invalid_arg "Blur: power grid dimensions mismatch";
  Obs.Trace.with_span "thermal.blur.eval" @@ fun () ->
  Obs.Metrics.count "thermal.blur.evals";
  let nx = t.b_nx and ny = t.b_ny in
  let a = Array.make (nx * ny) 0.0 in
  for iy = 0 to ny - 1 do
    for ix = 0 to nx - 1 do
      a.((iy * nx) + ix) <- Geo.Grid.get power ~ix ~iy
    done
  done;
  Fft.dct2_rows ~n:nx ~rows:ny a;
  let b = Array.make (nx * ny) 0.0 in
  transpose ~rows:ny ~cols:nx a b;
  Fft.dct2_rows ~n:ny ~rows:nx b;
  let g = t.b_transfer in
  for i = 0 to (nx * ny) - 1 do
    b.(i) <- b.(i) *. g.(i)
  done;
  Fft.idct2_rows ~n:ny ~rows:nx b;
  transpose ~rows:nx ~cols:ny b a;
  Fft.idct2_rows ~n:nx ~rows:ny a;
  a

let field t ~power =
  let a = apply t ~power in
  let nx = t.b_nx in
  Geo.Grid.of_function ~nx ~ny:t.b_ny ~extent:t.b_extent
    ~f:(fun ~ix ~iy -> a.((iy * nx) + ix))

let peak t ~power =
  let a = apply t ~power in
  let best = ref neg_infinity in
  for i = 0 to Array.length a - 1 do
    if a.(i) > !best then best := a.(i)
  done;
  !best
