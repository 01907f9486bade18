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

type transfer = { ax_x : axis; ax_y : axis }

type level = {
  a : Sparse.t;
  diag : float array;
  nx : int;
  ny : int;
  n : int;
  down : transfer option;       (* to the next-coarser level *)
  residual_metric : string;
}

type t = {
  levels : level array;
  nz : int;
  coarse : Dense.t;
}

type vectors = {
  vb : float array;   (* level right-hand side *)
  vx : float array;   (* level iterate *)
  vr : float array;   (* residual / SpMV scratch *)
  vz : float array;   (* smoother scratch *)
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

let level_of ~index ~a ~nx ~ny ~nz ~down =
  let n = nx * ny * nz in
  if Sparse.dim a <> n then
    invalid_arg
      (Printf.sprintf
         "Multigrid.build: level %d matrix dim %d does not match %dx%dx%d"
         index (Sparse.dim a) nx ny nz);
  let diag = Sparse.diagonal a in
  Array.iteri
    (fun i d ->
      if not (d > 0.0) then
        invalid_arg
          (Printf.sprintf
             "Multigrid.build: non-positive diagonal %g at node %d of level %d"
             d i index))
    diag;
  { a; diag; nx; ny; n;
    down;
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
    go nx ny []
  in
  let num = List.length dims in
  let dims = Array.of_list dims in
  let levels =
    Array.init num (fun l ->
        let lnx, lny = dims.(l) in
        let a = if l = 0 then fine else assemble ~nx:lnx ~ny:lny in
        let down =
          if l = num - 1 then None
          else
            let cnx, cny = dims.(l + 1) in
            Some { ax_x = axis_of ~fine:lnx ~coarse:cnx;
                   ax_y = axis_of ~fine:lny ~coarse:cny }
        in
        level_of ~index:l ~a ~nx:lnx ~ny:lny ~nz ~down)
  in
  let bottom = levels.(num - 1) in
  if bottom.n > coarsest_max_dim then
    invalid_arg
      (Printf.sprintf
         "Multigrid.build: coarsest level has %d nodes (> %d); grid too \
          anisotropic to coarsen"
         bottom.n coarsest_max_dim);
  let coarse = Dense.of_sparse bottom.a in
  Obs.Metrics.gauge "thermal.mg.levels" (float_of_int num);
  { levels; nz; coarse }

let fine_dim t = t.levels.(0).n
let num_levels t = Array.length t.levels

let workspace t =
  Array.map
    (fun lv ->
      { vb = Array.make lv.n 0.0;
        vx = Array.make lv.n 0.0;
        vr = Array.make lv.n 0.0;
        vz = Array.make lv.n 0.0 })
    t.levels

(* dst <- M^-1 src for one symmetric Gauss-Seidel (SSOR 1.0) sweep. *)
let smooth lv src dst =
  Sparse.ssor_apply lv.a ~diag:lv.diag ~omega:1.0 src dst

(* vr <- vb - A vx *)
let level_residual lv v =
  Sparse.mul lv.a v.vx v.vr;
  for i = 0 to lv.n - 1 do
    v.vr.(i) <- v.vb.(i) -. v.vr.(i)
  done

let norm2 v =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. (v.(i) *. v.(i))
  done;
  sqrt !acc

(* Full-weighting restriction: coarse.vb <- P^T fine.vr (layer by layer). *)
let restrict lv fine_v coarse_lv coarse_v =
  let tr = Option.get lv.down in
  let { p0 = xp0; w0 = xw0; p1 = xp1; w1 = xw1 } = tr.ax_x in
  let { p0 = yp0; w0 = yw0; p1 = yp1; w1 = yw1 } = tr.ax_y in
  let cb = coarse_v.vb in
  Array.fill cb 0 coarse_lv.n 0.0;
  let fnx = lv.nx and fny = lv.ny in
  let cnx = coarse_lv.nx in
  let layers = lv.n / (fnx * fny) in
  for iz = 0 to layers - 1 do
    let fbase = iz * fny * fnx in
    let cbase = iz * coarse_lv.ny * cnx in
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
let prolong_add lv fine_v coarse_lv coarse_v =
  let tr = Option.get lv.down in
  let { p0 = xp0; w0 = xw0; p1 = xp1; w1 = xw1 } = tr.ax_x in
  let { p0 = yp0; w0 = yw0; p1 = yp1; w1 = yw1 } = tr.ax_y in
  let cx = coarse_v.vx in
  let fnx = lv.nx and fny = lv.ny in
  let cnx = coarse_lv.nx in
  let layers = lv.n / (fnx * fny) in
  for iz = 0 to layers - 1 do
    let fbase = iz * fny * fnx in
    let cbase = iz * coarse_lv.ny * cnx in
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
  let lv = t.levels.(l) in
  let v = ws.(l) in
  if l = Array.length t.levels - 1 then begin
    let sol = Dense.solve t.coarse v.vb in
    Array.blit sol 0 v.vx 0 lv.n
  end else begin
    (* Pre-smooth from the zero guess: vx <- M^-1 vb. *)
    smooth lv v.vb v.vx;
    level_residual lv v;
    if Obs.Metrics.enabled () then
      Obs.Metrics.observe lv.residual_metric (norm2 v.vr);
    let coarse_lv = t.levels.(l + 1) in
    let coarse_v = ws.(l + 1) in
    restrict lv v coarse_lv coarse_v;
    cycle t ws (l + 1);
    prolong_add lv v coarse_lv coarse_v;
    (* Post-smooth (adjoint of the pre-smooth, keeping the cycle
       symmetric): vx <- vx + M^-1 (vb - A vx). *)
    level_residual lv v;
    smooth lv v.vr v.vz;
    for i = 0 to lv.n - 1 do
      v.vx.(i) <- v.vx.(i) +. v.vz.(i)
    done
  end

let apply t ws r z =
  let lv0 = t.levels.(0) in
  if Array.length r <> lv0.n || Array.length z <> lv0.n then
    invalid_arg "Multigrid.apply: vector dimension mismatch";
  if Array.length ws <> Array.length t.levels
     || Array.length ws.(0).vb <> lv0.n then
    invalid_arg "Multigrid.apply: workspace does not match hierarchy";
  Array.blit r 0 ws.(0).vb 0 lv0.n;
  cycle t ws 0;
  Array.blit ws.(0).vx 0 z 0 lv0.n;
  Obs.Metrics.count "thermal.mg.cycles"
