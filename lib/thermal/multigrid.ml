(* Geometric multigrid on the layered mesh: the x-y surface grid is
   coarsened (rounding up, so 5 -> 3), the z stack never is. Coarse
   operators are geometric rediscretizations supplied by the caller, which
   keeps construction O(n) and sidesteps the Galerkin triple-product
   memory blowup at 160x160x9. *)

(* Cell-centered bilinear transfer in one dimension: fine cell i has a
   main coarse parent (weight 3/4) and a neighbour parent (weight 1/4) on
   the side its center leans toward; at the grid edge, where the neighbour
   does not exist, its weight folds into the main parent. Restriction is
   the transpose, which full-weights interior coarse cells over their
   four/six fine children. *)
type axis = {
  p0 : int array;   (* main parent *)
  w0 : float array;
  p1 : int array;   (* neighbour parent (equals p0 when folded) *)
  w1 : float array;
}

type transfer = {
  ax_x : axis;
  ax_y : axis;
  cnx : int;   (* lateral dimensions of the next-coarser level *)
  cny : int;
}

(* A smoothed level keeps the 7-point stencil as per-node lower couplings
   (the upper ones are the neighbour's lower coupling, by symmetry) and
   the Thomas factorization of each z column; its CSR is not kept. The
   factorization's modified super-diagonal czm.(i + nx * ny) * inv_piv.(i)
   is recomputed where it is used, from values the column solve has just
   read, rather than stored. Node i is x-fastest, then y, then z, so a
   column is strided by nx * ny. *)
type level = {
  nx : int;
  ny : int;
  n : int;
  diag : float array;
  cxm : float array;      (* coupling to the x- neighbour, 0 at ix = 0 *)
  cym : float array;      (* ... to the y- neighbour, 0 at iy = 0 *)
  czm : float array;      (* ... to the z- neighbour, 0 at iz = 0 *)
  inv_piv : float array;  (* 1 / Thomas pivot of the node's column *)
  down : transfer;        (* to the next-coarser level *)
  residual_metric : string;
}

type t = {
  levels : level array;   (* smoothed levels, finest first *)
  coarse : Dense.t;       (* the coarsest level, factored *)
}

type vectors = {
  vb : float array;   (* level right-hand side *)
  vx : float array;   (* level iterate *)
  vr : float array;   (* residual *)
  vz : float array;   (* post-smoothing correction *)
  vs : float array;   (* smoother scratch: the forward sweep's T u *)
}

type workspace = vectors array

let coarsest_lateral = 4
let coarsest_max_dim = 4096

let axis_of ~fine ~coarse =
  let p0 = Array.make fine 0 and w0 = Array.make fine 1.0 in
  let p1 = Array.make fine 0 and w1 = Array.make fine 0.0 in
  for i = 0 to fine - 1 do
    let main = min (coarse - 1) (i / 2) in
    let other = if i land 1 = 0 then main - 1 else main + 1 in
    if other < 0 || other >= coarse then begin
      p0.(i) <- main;
      p1.(i) <- main
    end else begin
      p0.(i) <- main;
      w0.(i) <- 0.75;
      p1.(i) <- other;
      w1.(i) <- 0.25
    end
  done;
  { p0; w0; p1; w1 }

let check_dim ~index a ~nx ~ny ~nz =
  if Sparse.dim a <> nx * ny * nz then
    invalid_arg
      (Printf.sprintf
         "Multigrid.build: level %d matrix dim %d does not match %dx%dx%d"
         index (Sparse.dim a) nx ny nz)

(* Extract the lower stencil from [a] and factor every z column
   T = tridiag(czm, diag, czm+) with the Thomas algorithm. A pivot needs
   only the one below it in its column, so rows are factored in memory
   order, right after they are read. *)
let level_of ~index ~a ~nx ~ny ~nz ~down =
  check_dim ~index a ~nx ~ny ~nz;
  let nxy = nx * ny in
  let n = nxy * nz in
  let diag = Array.make n 0.0 in
  let cxm = Array.make n 0.0 and cym = Array.make n 0.0 in
  let czm = Array.make n 0.0 and inv_piv = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let x_lo = if i mod nx > 0 then i - 1 else -1 in
    let y_lo = if i / nx mod ny > 0 then i - nx else -1 in
    Sparse.iter_row a i ~f:(fun j v ->
        if j = i then diag.(i) <- v
        else if j = x_lo then cxm.(i) <- v
        else if j = y_lo then cym.(i) <- v
        else if j = i - nxy then czm.(i) <- v);
    let piv =
      if i < nxy then diag.(i)
      else diag.(i) -. (czm.(i) *. (czm.(i) *. inv_piv.(i - nxy)))
    in
    if not (piv > 0.0) then
      invalid_arg
        (Printf.sprintf
           "Multigrid.build: non-positive column pivot %g at node %d of \
            level %d"
           piv i index);
    inv_piv.(i) <- 1.0 /. piv
  done;
  { nx; ny; n; diag; cxm; cym; czm; inv_piv; down;
    residual_metric = Printf.sprintf "thermal.mg.level%d.residual" index }

let build ~fine ~nx ~ny ~nz ~assemble () =
  Obs.Trace.with_span "thermal.mg.build" @@ fun () ->
  if nx <= 0 || ny <= 0 || nz <= 0 then
    invalid_arg "Multigrid.build: grid dimensions must be positive";
  (* Finest-first lateral dimensions: halve (rounding up) until either
     axis reaches the direct-solve scale. *)
  let dims =
    let rec go cx cy acc =
      let acc = (cx, cy) :: acc in
      if cx > coarsest_lateral && cy > coarsest_lateral then
        go ((cx + 1) / 2) ((cy + 1) / 2) acc
      else List.rev acc
    in
    Array.of_list (go nx ny [])
  in
  let num = Array.length dims in
  let bnx, bny = dims.(num - 1) in
  if bnx * bny * nz > coarsest_max_dim then
    invalid_arg
      (Printf.sprintf
         "Multigrid.build: coarsest level has %d nodes (> %d); grid too \
          anisotropic to coarsen"
         (bnx * bny * nz) coarsest_max_dim);
  let matrix l =
    let lnx, lny = dims.(l) in
    if l = 0 then fine else assemble ~nx:lnx ~ny:lny
  in
  let levels =
    Array.init (num - 1) (fun l ->
        let lnx, lny = dims.(l) in
        let cnx, cny = dims.(l + 1) in
        let down =
          { ax_x = axis_of ~fine:lnx ~coarse:cnx;
            ax_y = axis_of ~fine:lny ~coarse:cny; cnx; cny }
        in
        level_of ~index:l ~a:(matrix l) ~nx:lnx ~ny:lny ~nz ~down)
  in
  let bottom = matrix (num - 1) in
  check_dim ~index:(num - 1) bottom ~nx:bnx ~ny:bny ~nz;
  let coarse = Dense.of_sparse bottom in
  Obs.Metrics.gauge "thermal.mg.levels" (float_of_int num);
  { levels; coarse }

let fine_dim t =
  if Array.length t.levels = 0 then Dense.dim t.coarse else t.levels.(0).n

let num_levels t = Array.length t.levels + 1

let workspace t =
  let vectors n =
    { vb = Array.make n 0.0; vx = Array.make n 0.0; vr = Array.make n 0.0;
      vz = Array.make n 0.0; vs = Array.make n 0.0 }
  in
  Array.append
    (Array.map (fun lv -> vectors lv.n) t.levels)
    [| vectors (Dense.dim t.coarse) |]

(* Back substitution of column c's Thomas solve: on entry dst holds the
   forward-eliminated column, on exit the column's solution. *)
let back_substitute lv dst c =
  let nxy = lv.nx * lv.ny in
  let i = ref (lv.n - nxy + c - nxy) in
  while !i >= c do
    let up = !i + nxy in
    dst.(!i) <- dst.(!i) -. (lv.czm.(up) *. lv.inv_piv.(!i) *. dst.(up));
    i := !i - nxy
  done

(* dst <- M^-1 src for one symmetric z-line Gauss-Seidel sweep, the block
   splitting M = (T + L) T^-1 (T + U) with T the z-column blocks and L, U
   the lateral couplings. Forward: columns in (iy, ix) order solve
   T u_c = src_c - L u; that right-hand side equals T u_c and is kept in
   [scratch]. Backward: columns in exact reverse order solve
   T dst_c = scratch_c - U dst. Each column's forward elimination is fused
   into the pass that forms its right-hand side. *)
let smooth lv ~src ~dst ~scratch =
  let nx = lv.nx and ny = lv.ny and n = lv.n in
  let nxy = nx * ny in
  let cxm = lv.cxm and cym = lv.cym in
  let czm = lv.czm and inv_piv = lv.inv_piv in
  for iy = 0 to ny - 1 do
    for ix = 0 to nx - 1 do
      let c = (iy * nx) + ix in
      let prev = ref 0.0 in
      let i = ref c in
      while !i < n do
        let k = !i in
        let g = ref src.(k) in
        if ix > 0 then g := !g -. (cxm.(k) *. dst.(k - 1));
        if iy > 0 then g := !g -. (cym.(k) *. dst.(k - nx));
        scratch.(k) <- !g;
        let y = (!g -. (czm.(k) *. !prev)) *. inv_piv.(k) in
        dst.(k) <- y;
        prev := y;
        i := k + nxy
      done;
      back_substitute lv dst c
    done
  done;
  for iy = ny - 1 downto 0 do
    for ix = nx - 1 downto 0 do
      let c = (iy * nx) + ix in
      let prev = ref 0.0 in
      let i = ref c in
      while !i < n do
        let k = !i in
        let g = ref scratch.(k) in
        if ix < nx - 1 then g := !g -. (cxm.(k + 1) *. dst.(k + 1));
        if iy < ny - 1 then g := !g -. (cym.(k + nx) *. dst.(k + nx));
        let y = (!g -. (czm.(k) *. !prev)) *. inv_piv.(k) in
        dst.(k) <- y;
        prev := y;
        i := k + nxy
      done;
      back_substitute lv dst c
    done
  done

(* vr <- vb - A vx, the upper couplings read from the neighbour's lower
   ones. *)
let level_residual lv v =
  let nx = lv.nx and ny = lv.ny and n = lv.n in
  let nxy = nx * ny in
  let diag = lv.diag and cxm = lv.cxm and cym = lv.cym and czm = lv.czm in
  let x = v.vx in
  for iz = 0 to (n / nxy) - 1 do
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let i = (iz * nxy) + (iy * nx) + ix in
        let acc = ref (diag.(i) *. x.(i)) in
        if ix > 0 then acc := !acc +. (cxm.(i) *. x.(i - 1));
        if ix < nx - 1 then acc := !acc +. (cxm.(i + 1) *. x.(i + 1));
        if iy > 0 then acc := !acc +. (cym.(i) *. x.(i - nx));
        if iy < ny - 1 then acc := !acc +. (cym.(i + nx) *. x.(i + nx));
        if iz > 0 then acc := !acc +. (czm.(i) *. x.(i - nxy));
        if i + nxy < n then acc := !acc +. (czm.(i + nxy) *. x.(i + nxy));
        v.vr.(i) <- v.vb.(i) -. !acc
      done
    done
  done

let norm2 v =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. (v.(i) *. v.(i))
  done;
  sqrt !acc

(* Full-weighting restriction: coarse.vb <- P^T fine.vr (layer by layer). *)
let restrict lv fine_v coarse_v =
  let tr = lv.down in
  let { p0 = xp0; w0 = xw0; p1 = xp1; w1 = xw1 } = tr.ax_x in
  let { p0 = yp0; w0 = yw0; p1 = yp1; w1 = yw1 } = tr.ax_y in
  let cb = coarse_v.vb in
  Array.fill cb 0 (Array.length cb) 0.0;
  let fnx = lv.nx and fny = lv.ny in
  let cnx = tr.cnx in
  let layers = lv.n / (fnx * fny) in
  for iz = 0 to layers - 1 do
    let fbase = iz * fny * fnx in
    let cbase = iz * tr.cny * cnx in
    for iy = 0 to fny - 1 do
      let c0 = cbase + (yp0.(iy) * cnx) and wy0 = yw0.(iy) in
      let c1 = cbase + (yp1.(iy) * cnx) and wy1 = yw1.(iy) in
      let frow = fbase + (iy * fnx) in
      for ix = 0 to fnx - 1 do
        let v = fine_v.vr.(frow + ix) in
        let j0 = xp0.(ix) and wx0 = xw0.(ix) in
        let j1 = xp1.(ix) and wx1 = xw1.(ix) in
        cb.(c0 + j0) <- cb.(c0 + j0) +. (v *. wx0 *. wy0);
        cb.(c0 + j1) <- cb.(c0 + j1) +. (v *. wx1 *. wy0);
        cb.(c1 + j0) <- cb.(c1 + j0) +. (v *. wx0 *. wy1);
        cb.(c1 + j1) <- cb.(c1 + j1) +. (v *. wx1 *. wy1)
      done
    done
  done

(* Bilinear prolongation and correction: fine.vx <- fine.vx + P coarse.vx. *)
let prolong_add lv fine_v coarse_v =
  let tr = lv.down in
  let { p0 = xp0; w0 = xw0; p1 = xp1; w1 = xw1 } = tr.ax_x in
  let { p0 = yp0; w0 = yw0; p1 = yp1; w1 = yw1 } = tr.ax_y in
  let cx = coarse_v.vx in
  let fnx = lv.nx and fny = lv.ny in
  let cnx = tr.cnx in
  let layers = lv.n / (fnx * fny) in
  for iz = 0 to layers - 1 do
    let fbase = iz * fny * fnx in
    let cbase = iz * tr.cny * cnx in
    for iy = 0 to fny - 1 do
      let c0 = cbase + (yp0.(iy) * cnx) and wy0 = yw0.(iy) in
      let c1 = cbase + (yp1.(iy) * cnx) and wy1 = yw1.(iy) in
      let frow = fbase + (iy * fnx) in
      for ix = 0 to fnx - 1 do
        let j0 = xp0.(ix) and wx0 = xw0.(ix) in
        let j1 = xp1.(ix) and wx1 = xw1.(ix) in
        let v =
          (wx0 *. wy0 *. cx.(c0 + j0))
          +. (wx1 *. wy0 *. cx.(c0 + j1))
          +. (wx0 *. wy1 *. cx.(c1 + j0))
          +. (wx1 *. wy1 *. cx.(c1 + j1))
        in
        fine_v.vx.(frow + ix) <- fine_v.vx.(frow + ix) +. v
      done
    done
  done

let rec cycle t ws l =
  let v = ws.(l) in
  if l = Array.length t.levels then Dense.solve_into t.coarse v.vb v.vx
  else begin
    let lv = t.levels.(l) in
    (* Pre-smooth from the zero guess: vx <- M^-1 vb. *)
    smooth lv ~src:v.vb ~dst:v.vx ~scratch:v.vs;
    level_residual lv v;
    if Obs.Metrics.enabled () then
      Obs.Metrics.observe lv.residual_metric (norm2 v.vr);
    let coarse_v = ws.(l + 1) in
    restrict lv v coarse_v;
    cycle t ws (l + 1);
    prolong_add lv v coarse_v;
    (* Post-smooth (the same symmetric sweep, keeping the cycle
       symmetric): vx <- vx + M^-1 (vb - A vx). *)
    level_residual lv v;
    smooth lv ~src:v.vr ~dst:v.vz ~scratch:v.vs;
    for i = 0 to lv.n - 1 do
      v.vx.(i) <- v.vx.(i) +. v.vz.(i)
    done
  end

let apply t ws r z =
  let n = fine_dim t in
  if Array.length r <> n || Array.length z <> n then
    invalid_arg "Multigrid.apply: vector dimension mismatch";
  if Array.length ws <> num_levels t || Array.length ws.(0).vb <> n then
    invalid_arg "Multigrid.apply: workspace does not match hierarchy";
  Array.blit r 0 ws.(0).vb 0 n;
  cycle t ws 0;
  Array.blit ws.(0).vx 0 z 0 n;
  Obs.Metrics.count "thermal.mg.cycles"
