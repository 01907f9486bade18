(* Modal transfer on the die's own DCT-II basis (see Modal): every
   lateral mode decouples, so the power-to-temperature map of the active
   layer is one scalar G(kx, ky) per mode, and an evaluation is
   T = IDCT(G * DCT(P)) — Modal's transform pair with a diagonal product
   between. The transfer is stored in the kx-major ([kx * ny + ky])
   layout of Modal's spectra. *)

type t = {
  b_nx : int;
  b_ny : int;
  b_extent : Geo.Rect.t;
  b_transfer : float array; (* G(kx, ky) at kx * ny + ky *)
}

let nx t = t.b_nx
let ny t = t.b_ny
let extent t = t.b_extent

let of_modes ~nx ~ny ~extent ~transfer =
  if nx < 1 || ny < 1 then invalid_arg "Blur.of_modes: empty grid";
  let ly = Array.init ny (Modal.eigenvalue ny) in
  let g = Array.make (nx * ny) 0.0 in
  for kx = 0 to nx - 1 do
    let lx = Modal.eigenvalue nx kx in
    for ky = 0 to ny - 1 do
      g.((kx * ny) + ky) <- transfer ~lx ~ly:ly.(ky)
    done
  done;
  Obs.Metrics.count "thermal.blur.kernels";
  { b_nx = nx; b_ny = ny; b_extent = extent; b_transfer = g }

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
  let b = Array.make (nx * ny) 0.0 in
  Modal.forward ~nx ~ny a b;
  let g = t.b_transfer in
  for i = 0 to (nx * ny) - 1 do
    b.(i) <- b.(i) *. g.(i)
  done;
  Modal.inverse ~nx ~ny b a;
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
