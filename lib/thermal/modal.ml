(* The die's DCT-II basis. Layouts:

   - a layer is nx x ny, x-major (Geo.Grid and Mesh.node_index order);
     its spectrum is kx-major, mode (kx, ky) at kx * ny + ky;
   - the forward transform runs DCT-II rows along x on the x-major array,
     a transpose, and rows along y; the inverse runs the same steps back;
   - an adiabatic-walled layer's lateral stencil is a free-end path
     Laplacian per axis, which the DCT-II diagonalizes exactly, so with
     per-layer uniform conductances every lateral mode of the whole stack
     decouples into one nz x nz tridiagonal system. *)

let eigenvalue n k =
  2.0 *. (1.0 -. cos (Float.pi *. float_of_int k /. float_of_int n))

(* [b] := transpose of the [rows] x [cols] row-major [a]. *)
let transpose ~rows ~cols (a : float array) (b : float array) =
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      b.((c * rows) + r) <- a.((r * cols) + c)
    done
  done

let forward ~nx ~ny a b =
  Fft.dct2_rows ~n:nx ~rows:ny a;
  transpose ~rows:ny ~cols:nx a b;
  Fft.dct2_rows ~n:ny ~rows:nx b

let inverse ~nx ~ny b a =
  Fft.idct2_rows ~n:ny ~rows:nx b;
  transpose ~rows:nx ~cols:ny b a;
  Fft.idct2_rows ~n:nx ~rows:ny a

let all_zero (a : float array) ~off ~len =
  let i = ref 0 in
  while !i < len && a.(off + !i) = 0.0 do incr i done;
  !i = len

let solve ~nx ~ny ~face ~g_x ~g_y ~g_v rhs =
  let nz = Array.length face in
  let nxy = nx * ny in
  if nx < 1 || ny < 1 || nz < 1 then invalid_arg "Modal.solve: empty grid";
  if Array.length g_x <> nz || Array.length g_y <> nz
     || Array.length g_v <> nz - 1
  then invalid_arg "Modal.solve: conductance arrays of the wrong length";
  if Array.length rhs <> nz * nxy then
    invalid_arg "Modal.solve: rhs dimension mismatch";
  let work = Array.make nxy 0.0 in
  (* a layer with no source has a zero spectrum: its transform is
     skipped, and flow solves inject into the power layer alone *)
  let spec =
    Array.init nz (fun iz ->
        let s = Array.make nxy 0.0 in
        let off = iz * nxy in
        if not (all_zero rhs ~off ~len:nxy) then begin
          Array.blit rhs off work 0 nxy;
          forward ~nx ~ny work s
        end;
        s)
  in
  let lx = Array.init nx (eigenvalue nx) in
  let ly = Array.init ny (eigenvalue ny) in
  let inv = Array.make nz 0.0 in
  for kx = 0 to nx - 1 do
    for ky = 0 to ny - 1 do
      let m = (kx * ny) + ky in
      (* Bottom-up elimination written as conductances in series, as in
         Mesh.blur: with the layers below folded in, layer iz grounds
         through s (its own ground plus what presents from below) and
         carries the folded source j; it presents g s / (g + s) and
         passes g j / (g + s) up through g = g_v.(iz). No nearly equal
         numbers are subtracted. *)
      let below = ref 0.0 and carried = ref 0.0 in
      for iz = 0 to nz - 2 do
        let s =
          face.(iz) +. (g_x.(iz) *. lx.(kx)) +. (g_y.(iz) *. ly.(ky))
          +. !below
        in
        let j = spec.(iz).(m) +. !carried in
        let g = g_v.(iz) in
        let d = 1.0 /. (g +. s) in
        inv.(iz) <- d;
        spec.(iz).(m) <- j;
        below := g *. s *. d;
        carried := g *. j *. d
      done;
      let top = nz - 1 in
      let s =
        face.(top) +. (g_x.(top) *. lx.(kx)) +. (g_y.(top) *. ly.(ky))
        +. !below
      in
      let t = ref ((spec.(top).(m) +. !carried) /. s) in
      spec.(top).(m) <- !t;
      for iz = nz - 2 downto 0 do
        t := (spec.(iz).(m) +. (g_v.(iz) *. !t)) *. inv.(iz);
        spec.(iz).(m) <- !t
      done
    done
  done;
  let temp = Array.make (nz * nxy) 0.0 in
  Array.iteri
    (fun iz s ->
       inverse ~nx ~ny s work;
       Array.blit work 0 temp (iz * nxy) nxy)
    spec;
  temp
