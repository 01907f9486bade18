type t = {
  nx : int;
  ny : int;
  nz : int;
  gx : float array;
  gy : float array;
  gz : float array;
  diag : float array;
}

(* The boundary class of index [i] on an axis of [n] cells: bit 0 for
   a neighbour below, bit 1 for one above. *)
let boundary_class n i =
  (if i > 0 then 1 else 0) + if i < n - 1 then 2 else 0

(* the classes that occur on an axis of [n] cells *)
let classes n = if n = 1 then [ 0 ] else if n = 2 then [ 2; 1 ] else [ 2; 3; 1 ]

(* four x-classes by four y-classes per layer; the classes that cannot
   occur on the grid are left at 0 *)
let class_index ~xc ~yc ~iz = (iz * 16) + (yc * 4) + xc

let make ~nx ~ny ~gx ~gy ~gz ~diag:d =
  let nz = Array.length gx in
  if nx <= 0 || ny <= 0 || nz = 0 then
    invalid_arg "Stencil.make: grid dimensions must be positive";
  if Array.length gy <> nz || Array.length gz <> nz - 1 then
    invalid_arg "Stencil.make: coupling arrays do not match the layer count";
  let diag = Array.make (16 * nz) 0.0 in
  for iz = 0 to nz - 1 do
    List.iter
      (fun yc ->
         List.iter
           (fun xc -> diag.(class_index ~xc ~yc ~iz) <- d ~xc ~yc ~iz)
           (classes nx))
      (classes ny)
  done;
  { nx; ny; nz; gx; gy; gz; diag }

let dim t = t.nx * t.ny * t.nz

let shift t s =
  if Array.length s <> t.nz then invalid_arg "Stencil.shift: one value per layer";
  { t with diag = Array.mapi (fun c d -> d +. s.(c / 16)) t.diag }

let diagonal t =
  let d = Array.make (dim t) 0.0 in
  let i = ref 0 in
  for iz = 0 to t.nz - 1 do
    for iy = 0 to t.ny - 1 do
      let yc = boundary_class t.ny iy in
      for ix = 0 to t.nx - 1 do
        d.(!i) <- t.diag.(class_index ~xc:(boundary_class t.nx ix) ~yc ~iz);
        incr i
      done
    done
  done;
  d

let iter_row t i ~f =
  let nx = t.nx and ny = t.ny in
  let nxy = nx * ny in
  let ix = i mod nx and iy = i / nx mod ny and iz = i / nxy in
  if iz > 0 then f (i - nxy) (-.t.gz.(iz - 1));
  if iy > 0 then f (i - nx) (-.t.gy.(iz));
  if ix > 0 then f (i - 1) (-.t.gx.(iz));
  f i
    t.diag.(class_index ~xc:(boundary_class nx ix) ~yc:(boundary_class ny iy)
              ~iz);
  if ix < nx - 1 then f (i + 1) (-.t.gx.(iz));
  if iy < ny - 1 then f (i + nx) (-.t.gy.(iz));
  if iz < t.nz - 1 then f (i + nxy) (-.t.gz.(iz))

(* The kernels below subtract [g *. v] where the matrix entry is [-g]:
   IEEE negation is exact, so [a -. (g *. v)] is [a +. ((-.g) *. v)] bit
   for bit. *)

let mul t x y =
  let n = dim t in
  if Array.length x <> n || Array.length y <> n then
    invalid_arg "Stencil.mul: dimension mismatch";
  let nx = t.nx and ny = t.ny and nz = t.nz in
  let nxy = nx * ny in
  for iz = 0 to nz - 1 do
    let gx = t.gx.(iz) and gy = t.gy.(iz) in
    let g_below = if iz > 0 then t.gz.(iz - 1) else 0.0 in
    let g_above = if iz < nz - 1 then t.gz.(iz) else 0.0 in
    for iy = 0 to ny - 1 do
      let row = class_index ~xc:0 ~yc:(boundary_class ny iy) ~iz in
      for ix = 0 to nx - 1 do
        let i = (iz * nxy) + (iy * nx) + ix in
        let acc = ref 0.0 in
        if iz > 0 then acc := !acc -. (g_below *. x.(i - nxy));
        if iy > 0 then acc := !acc -. (gy *. x.(i - nx));
        if ix > 0 then acc := !acc -. (gx *. x.(i - 1));
        acc := !acc +. (t.diag.(row + boundary_class nx ix) *. x.(i));
        if ix < nx - 1 then acc := !acc -. (gx *. x.(i + 1));
        if iy < ny - 1 then acc := !acc -. (gy *. x.(i + nx));
        if iz < nz - 1 then acc := !acc -. (g_above *. x.(i + nxy));
        y.(i) <- !acc
      done
    done
  done
