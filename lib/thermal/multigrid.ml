(* Geometric multigrid on the layered mesh: the x-y surface grid is
   coarsened (rounding up, so 5 -> 3), the z stack never is. Coarse
   operators are geometric rediscretizations supplied by the caller, so
   a level costs O(layers) to set up and the Galerkin triple product is
   never formed. *)

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

(* A smoothed level is its stencil plus the Thomas factorization of its z
   columns. A column's pivots depend only on its x and y boundary classes,
   so they are stored as inverse pivots per (class, layer), indexed like
   the stencil's diagonal; the modified super-diagonal -gz.(iz) times the
   inverse pivot is recomputed where it is used. Node i is x-fastest, then
   y, then z, so a column is strided by nx * ny. *)
type level = {
  op : Stencil.t;
  inv_piv : float array;  (* 1 / Thomas pivot, by Stencil.class_index *)
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

let check_dims ~index (op : Stencil.t) ~nx ~ny ~nz =
  if op.Stencil.nx <> nx || op.Stencil.ny <> ny || op.Stencil.nz <> nz then
    invalid_arg
      (Printf.sprintf
         "Multigrid.build: level %d operator is %dx%dx%d, not %dx%dx%d"
         index op.Stencil.nx op.Stencil.ny op.Stencil.nz nx ny nz)

(* Factor every z column T = tridiag(-gz, diag, -gz) with the Thomas
   algorithm, one column per (x-class, y-class). Layers go bottom-up and
   classes in the order of their first node, so a failure names the
   first node whose pivot is not positive. *)
let level_of ~index ~(op : Stencil.t) ~down =
  let nx = op.Stencil.nx and ny = op.Stencil.ny in
  let inv_piv = Array.make (Array.length op.Stencil.diag) 0.0 in
  for iz = 0 to op.Stencil.nz - 1 do
    List.iter
      (fun yc ->
         List.iter
           (fun xc ->
              let c = Stencil.class_index ~xc ~yc ~iz in
              let d = op.Stencil.diag.(c) in
              let piv =
                if iz = 0 then d
                else begin
                  let g = op.Stencil.gz.(iz - 1) in
                  let below = Stencil.class_index ~xc ~yc ~iz:(iz - 1) in
                  d -. (g *. (g *. inv_piv.(below)))
                end
              in
              if not (piv > 0.0) then
                invalid_arg
                  (Printf.sprintf
                     "Multigrid.build: non-positive column pivot %g at node \
                      %d of level %d"
                     piv
                     ((((iz * ny) + Stencil.first_cell ny yc) * nx)
                      + Stencil.first_cell nx xc)
                     index);
              inv_piv.(c) <- 1.0 /. piv)
           (Stencil.classes nx))
      (Stencil.classes ny)
  done;
  { op; inv_piv; down;
    residual_metric = Printf.sprintf "thermal.mg.level%d.residual" index }

let build ~(fine : Stencil.t) ~coarse () =
  Obs.Trace.with_span "thermal.mg.build" @@ fun () ->
  let nx = fine.Stencil.nx and ny = fine.Stencil.ny and nz = fine.Stencil.nz in
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
  let op l =
    if l = 0 then fine
    else begin
      let lnx, lny = dims.(l) in
      let op = coarse ~nx:lnx ~ny:lny in
      check_dims ~index:l op ~nx:lnx ~ny:lny ~nz;
      op
    end
  in
  let levels =
    Array.init (num - 1) (fun l ->
        let lnx, lny = dims.(l) in
        let cnx, cny = dims.(l + 1) in
        let down =
          { ax_x = axis_of ~fine:lnx ~coarse:cnx;
            ax_y = axis_of ~fine:lny ~coarse:cny; cnx; cny }
        in
        level_of ~index:l ~op:(op l) ~down)
  in
  let coarse = Dense.of_stencil (op (num - 1)) in
  Obs.Metrics.gauge "thermal.mg.levels" (float_of_int num);
  { levels; coarse }

let level_dim lv = Stencil.dim lv.op

let fine_dim t =
  if Array.length t.levels = 0 then Dense.dim t.coarse
  else level_dim t.levels.(0)

let num_levels t = Array.length t.levels + 1

let workspace t =
  let vectors n =
    { vb = Array.make n 0.0; vx = Array.make n 0.0; vr = Array.make n 0.0;
      vz = Array.make n 0.0; vs = Array.make n 0.0 }
  in
  Array.append
    (Array.map (fun lv -> vectors (level_dim lv)) t.levels)
    [| vectors (Dense.dim t.coarse) |]

(* Stencil.boundary_class, repeated so that the per-column and per-node
   loops below make no call into another module. *)
let boundary_class n i = (if i > 0 then 1 else 0) + if i < n - 1 then 2 else 0

(* The distance between one layer's entries and the next in the tables
   indexed by Stencil.class_index. *)
let layer_stride = Stencil.class_index ~xc:0 ~yc:0 ~iz:1

(* Back substitution of column c, whose inverse pivots start at [piv]:
   on entry dst holds the forward-eliminated column, on exit the
   column's solution. *)
let back_substitute lv dst c ~piv =
  let op = lv.op in
  let nxy = op.Stencil.nx * op.Stencil.ny in
  let gz = op.Stencil.gz and inv_piv = lv.inv_piv in
  for iz = op.Stencil.nz - 2 downto 0 do
    let i = c + (iz * nxy) in
    dst.(i) <-
      dst.(i)
      +. (gz.(iz) *. inv_piv.(piv + (iz * layer_stride)) *. dst.(i + nxy))
  done

(* dst <- M^-1 src for one symmetric z-line Gauss-Seidel sweep, the block
   splitting M = (T + L) T^-1 (T + U) with T the z-column blocks and L, U
   the lateral couplings. Forward: columns in (iy, ix) order solve
   T u_c = src_c - L u; that right-hand side equals T u_c and is kept in
   [scratch]. Backward: columns in exact reverse order solve
   T dst_c = scratch_c - U dst. Each column's forward elimination is fused
   into the pass that forms its right-hand side. Every coupling enters
   as [+. g *. v], the matrix entry being [-g]. *)
let smooth lv ~src ~dst ~scratch =
  let op = lv.op in
  let nx = op.Stencil.nx and ny = op.Stencil.ny and nz = op.Stencil.nz in
  let nxy = nx * ny in
  let gx = op.Stencil.gx and gy = op.Stencil.gy and gz = op.Stencil.gz in
  let inv_piv = lv.inv_piv in
  for iy = 0 to ny - 1 do
    let row = Stencil.class_index ~xc:0 ~yc:(boundary_class ny iy) ~iz:0 in
    for ix = 0 to nx - 1 do
      let c = (iy * nx) + ix in
      let piv = row + boundary_class nx ix in
      let prev = ref 0.0 in
      for iz = 0 to nz - 1 do
        let k = c + (iz * nxy) in
        let g = ref src.(k) in
        if ix > 0 then g := !g +. (gx.(iz) *. dst.(k - 1));
        if iy > 0 then g := !g +. (gy.(iz) *. dst.(k - nx));
        scratch.(k) <- !g;
        if iz > 0 then g := !g +. (gz.(iz - 1) *. !prev);
        let y = !g *. inv_piv.(piv + (iz * layer_stride)) in
        dst.(k) <- y;
        prev := y
      done;
      back_substitute lv dst c ~piv
    done
  done;
  for iy = ny - 1 downto 0 do
    let row = Stencil.class_index ~xc:0 ~yc:(boundary_class ny iy) ~iz:0 in
    for ix = nx - 1 downto 0 do
      let c = (iy * nx) + ix in
      let piv = row + boundary_class nx ix in
      let prev = ref 0.0 in
      for iz = 0 to nz - 1 do
        let k = c + (iz * nxy) in
        let g = ref scratch.(k) in
        if ix < nx - 1 then g := !g +. (gx.(iz) *. dst.(k + 1));
        if iy < ny - 1 then g := !g +. (gy.(iz) *. dst.(k + nx));
        if iz > 0 then g := !g +. (gz.(iz - 1) *. !prev);
        let y = !g *. inv_piv.(piv + (iz * layer_stride)) in
        dst.(k) <- y;
        prev := y
      done;
      back_substitute lv dst c ~piv
    done
  done

(* vr <- vb - A vx *)
let level_residual lv v =
  let op = lv.op in
  let nx = op.Stencil.nx and ny = op.Stencil.ny and nz = op.Stencil.nz in
  let nxy = nx * ny in
  let x = v.vx in
  for iz = 0 to nz - 1 do
    let gx = op.Stencil.gx.(iz) and gy = op.Stencil.gy.(iz) in
    let g_below = if iz > 0 then op.Stencil.gz.(iz - 1) else 0.0 in
    let g_above = if iz < nz - 1 then op.Stencil.gz.(iz) else 0.0 in
    for iy = 0 to ny - 1 do
      let row = Stencil.class_index ~xc:0 ~yc:(boundary_class ny iy) ~iz in
      for ix = 0 to nx - 1 do
        let i = (iz * nxy) + (iy * nx) + ix in
        let d = op.Stencil.diag.(row + boundary_class nx ix) in
        let acc = ref (d *. x.(i)) in
        if ix > 0 then acc := !acc -. (gx *. x.(i - 1));
        if ix < nx - 1 then acc := !acc -. (gx *. x.(i + 1));
        if iy > 0 then acc := !acc -. (gy *. x.(i - nx));
        if iy < ny - 1 then acc := !acc -. (gy *. x.(i + nx));
        if iz > 0 then acc := !acc -. (g_below *. x.(i - nxy));
        if iz < nz - 1 then acc := !acc -. (g_above *. x.(i + nxy));
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
  let fnx = lv.op.Stencil.nx and fny = lv.op.Stencil.ny in
  let cnx = tr.cnx in
  let layers = lv.op.Stencil.nz in
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
  let fnx = lv.op.Stencil.nx and fny = lv.op.Stencil.ny in
  let cnx = tr.cnx in
  let layers = lv.op.Stencil.nz in
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
    for i = 0 to level_dim lv - 1 do
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
