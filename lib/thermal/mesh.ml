type config = {
  nx : int;
  ny : int;
  stack : Stack.t;
}

let default_config = { nx = 40; ny = 40; stack = Stack.default_9layer }

type problem = {
  p_config : config;
  p_extent : Geo.Rect.t;
  p_matrix : Sparse.t;
  p_rhs : float array;
  p_cold_iters : int option ref;
  (* iterations of the first cold solve of this matrix, shared across every
     problem built from the same cache entry: the baseline against which
     warm-start savings are measured *)
  p_mg : Multigrid.t option ref;
  (* lazily built multigrid hierarchy for this matrix, shared the same way
     so an optimizer run builds it once per cached mesh *)
  p_blur : Blur.t option ref;
  (* lazily computed power-blurring transfer, shared across the cache
     entry so screening computes it once per (config, extent) *)
}

let matrix p = p.p_matrix
let rhs p = p.p_rhs
let config p = p.p_config
let extent p = p.p_extent

(* Same cached matrix (and MG hierarchy / blur kernel riding the cache
   entry), different right-hand side — the adjoint solve injects its
   custom source into the same operator. *)
let with_rhs p rhs =
  if Array.length rhs <> Array.length p.p_rhs then
    invalid_arg "Mesh.with_rhs: rhs dimension mismatch";
  { p with p_rhs = rhs }

let node_index cfg ~ix ~iy ~iz =
  assert (ix >= 0 && ix < cfg.nx && iy >= 0 && iy < cfg.ny
          && iz >= 0 && iz < Stack.num_layers cfg.stack);
  (((iz * cfg.ny) + iy) * cfg.nx) + ix

let um_to_m v = v *. 1.0e-6

(* The stack's conductances on the config's tiling of [extent]: the one
   definition the matrix assembly and the blur's modal transfer share.
   In layer iz every east coupling is [g_x.(iz)] and every north one
   [g_y.(iz)] (uniform k, full cell pitch); the vertical coupling of
   every tile to layer iz + 1 is [g_v.(iz)] (half-cell resistances
   R = (thickness/2) / (k * A) in series); and each tile of the bottom
   and top layers grounds through [g_bottom] and [g_top]. Side walls
   ground only boundary tiles and stay with the assembly. *)
type conductances = {
  dx_m : float;
  dy_m : float;
  g_x : float array;
  g_y : float array;
  g_v : float array; (* nz - 1 entries *)
  g_bottom : float;
  g_top : float;
}

let conductances cfg ~extent =
  let stack = cfg.stack in
  let layers = stack.Stack.layers in
  let nz = Array.length layers in
  let dx = um_to_m (Geo.Rect.width extent /. float_of_int cfg.nx) in
  let dy = um_to_m (Geo.Rect.height extent /. float_of_int cfg.ny) in
  let tile_area = dx *. dy in
  let k iz = layers.(iz).Stack.conductivity_w_mk in
  let dz iz = um_to_m layers.(iz).Stack.thickness_um in
  let r_half iz = dz iz /. 2.0 /. (k iz *. tile_area) in
  { dx_m = dx;
    dy_m = dy;
    g_x = Array.init nz (fun iz -> k iz *. (dy *. dz iz) /. dx);
    g_y = Array.init nz (fun iz -> k iz *. (dx *. dz iz) /. dy);
    g_v =
      Array.init (nz - 1) (fun iz -> 1.0 /. (r_half iz +. r_half (iz + 1)));
    g_bottom = stack.Stack.h_bottom_w_m2k *. tile_area;
    g_top = stack.Stack.h_top_w_m2k *. tile_area }

(* Conductance-matrix assembly. The matrix depends only on (config, extent)
   — power enters through the rhs alone — which is what makes the matrix
   cache below sound. *)
let assemble_builder cfg ~extent =
  let stack = cfg.stack in
  let nz = Stack.num_layers stack in
  let n = cfg.nx * cfg.ny * nz in
  let c = conductances cfg ~extent in
  (* triplet upper bound: four per coupling (east, north, up), one per
     grounded face, one for the fault hook — so the builder never grows *)
  let couplings =
    ((cfg.nx - 1) * cfg.ny * nz) + (cfg.nx * (cfg.ny - 1) * nz)
    + (cfg.nx * cfg.ny * (nz - 1))
  in
  let capacity =
    (4 * couplings) + (2 * cfg.nx * cfg.ny)
    + (4 * (cfg.nx + cfg.ny) * nz) + 1
  in
  let b = Sparse.builder ~n in
  Sparse.reserve b capacity;
  let couple i j g =
    Sparse.add b i i g;
    Sparse.add b j j g;
    Sparse.add b i j (-.g);
    Sparse.add b j i (-.g)
  in
  let ground i g = if g > 0.0 then Sparse.add b i i g in
  let h_side = stack.Stack.h_side_w_m2k in
  for iz = 0 to nz - 1 do
    let dz = um_to_m stack.Stack.layers.(iz).Stack.thickness_um in
    for iy = 0 to cfg.ny - 1 do
      for ix = 0 to cfg.nx - 1 do
        let i = node_index cfg ~ix ~iy ~iz in
        (* lateral east and north couplings (west/south added by peers) *)
        if ix + 1 < cfg.nx then
          couple i (node_index cfg ~ix:(ix + 1) ~iy ~iz) c.g_x.(iz);
        if iy + 1 < cfg.ny then
          couple i (node_index cfg ~ix ~iy:(iy + 1) ~iz) c.g_y.(iz);
        (* vertical coupling upward *)
        if iz + 1 < nz then
          couple i (node_index cfg ~ix ~iy ~iz:(iz + 1)) c.g_v.(iz);
        (* boundary conductances to ambient *)
        if iz = 0 then ground i c.g_bottom;
        if iz = nz - 1 then ground i c.g_top;
        if h_side > 0.0 then begin
          if ix = 0 || ix = cfg.nx - 1 then ground i (h_side *. c.dy_m *. dz);
          if iy = 0 || iy = cfg.ny - 1 then ground i (h_side *. c.dx_m *. dz)
        end
      done
    done
  done;
  (b, n)

(* Fault-free assembly, used for the coarse multigrid operators: coarse
   levels are internal rediscretizations, so a Perturb_matrix fault must
   hit the fine system the caller actually solves, not be consumed (and
   possibly crash the coarse Cholesky) several levels down. *)
let assemble_raw cfg ~extent =
  let b, _n = assemble_builder cfg ~extent in
  Sparse.of_builder b

let assemble cfg ~extent =
  let b, n = assemble_builder cfg ~extent in
  (* fault hook: one asymmetric off-diagonal spike breaks SPD-ness, which
     the CG breakdown guards and Postplace.Checks must both catch *)
  if n > 1 && Robust.Faults.consume Robust.Faults.Perturb_matrix then
    Sparse.add b 0 1 1.0e9;
  Sparse.of_builder b

(* MRU cache of assembled matrices keyed by (config, extent), both plain
   structural data. An optimizer run or sweep rebuilds the same mesh for
   every candidate power map; only the rhs actually changes. *)
type cache_entry = {
  ce_matrix : Sparse.t;
  ce_cold_iters : int option ref;
  ce_mg : Multigrid.t option ref;
  ce_blur : Blur.t option ref;
}

(* 8 slots cover the optimizer (one extent per inserted-row count) plus
   a package sweep. *)
let cache_capacity = 8
let cache_mutex = Mutex.create ()
let cache_entries : ((config * Geo.Rect.t) * cache_entry) list ref = ref []

let cache_clear () =
  Mutex.protect cache_mutex (fun () -> cache_entries := [])

let cache_lookup key =
  Mutex.protect cache_mutex (fun () ->
      match List.assoc_opt key !cache_entries with
      | Some e ->
        (* move to front *)
        cache_entries :=
          (key, e) :: List.filter (fun (k, _) -> k <> key) !cache_entries;
        Some e
      | None -> None)

let cache_insert key e =
  Mutex.protect cache_mutex (fun () ->
      match List.assoc_opt key !cache_entries with
      | Some existing -> existing (* a racing build won; reuse its entry *)
      | None ->
        let len = List.length !cache_entries in
        let kept =
          List.filteri (fun i _ -> i < cache_capacity - 1) !cache_entries
        in
        if len > cache_capacity - 1 then
          Obs.Metrics.count "thermal.mesh.cache.evictions"
            ~by:(len - (cache_capacity - 1));
        cache_entries := (key, e) :: kept;
        e)

let cache_remove key =
  Mutex.protect cache_mutex (fun () ->
      cache_entries := List.filter (fun (k, _) -> k <> key) !cache_entries)

(* a deliberately wrong-sized entry, substituted on a cache hit by the
   [Stale_mesh_cache] fault to prove the defensive check below fires *)
let stale_probe () =
  let b = Sparse.builder ~n:1 in
  Sparse.add b 0 0 1.0;
  { ce_matrix = Sparse.of_builder b; ce_cold_iters = ref None;
    ce_mg = ref None; ce_blur = ref None }

let build ?(cache = true) cfg ~power =
  Obs.Trace.with_span "thermal.mesh.build" @@ fun () ->
  begin match Stack.validate cfg.stack with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Mesh.build: " ^ msg)
  end;
  if Geo.Grid.nx power <> cfg.nx || Geo.Grid.ny power <> cfg.ny then
    invalid_arg "Mesh.build: power grid dimensions mismatch";
  let extent = Geo.Grid.extent power in
  let n = cfg.nx * cfg.ny * Stack.num_layers cfg.stack in
  let entry =
    (* while a matrix-perturbation fault is armed the cache is bypassed in
       both directions: the poisoned matrix must not be published for later
       healthy builds, and a healthy cached matrix must not mask the fault *)
    if not cache || Robust.Faults.armed Robust.Faults.Perturb_matrix then
      { ce_matrix = assemble cfg ~extent; ce_cold_iters = ref None;
        ce_mg = ref None; ce_blur = ref None }
    else begin
      let key = (cfg, extent) in
      match cache_lookup key with
      | Some e ->
        let e =
          if Robust.Faults.consume Robust.Faults.Stale_mesh_cache then
            stale_probe ()
          else e
        in
        (* defensive hit validation: a stale or corrupted entry whose
           dimension disagrees with the requested mesh would crash deep
           inside CG (or worse, silently solve the wrong system) — evict
           and reassemble instead *)
        if Sparse.dim e.ce_matrix <> n then begin
          Obs.Metrics.count "thermal.mesh.cache.stale";
          Obs.Log.warn
            (Printf.sprintf
               "Mesh.build: cached matrix has dim %d, expected %d; evicting \
                and reassembling"
               (Sparse.dim e.ce_matrix) n);
          cache_remove key;
          cache_insert key
            { ce_matrix = assemble cfg ~extent; ce_cold_iters = ref None;
              ce_mg = ref None; ce_blur = ref None }
        end
        else begin
          Obs.Metrics.count "thermal.mesh.cache.hits";
          e
        end
      | None ->
        Obs.Metrics.count "thermal.mesh.cache.misses";
        (* assemble outside the cache lock; worst case two racing builds
           assemble the same matrix and one is dropped *)
        cache_insert key
          { ce_matrix = assemble cfg ~extent; ce_cold_iters = ref None;
            ce_mg = ref None; ce_blur = ref None }
    end
  in
  let rhs = Array.make n 0.0 in
  let zp = cfg.stack.Stack.power_layer in
  Geo.Grid.iteri power ~f:(fun ~ix ~iy w ->
      rhs.(node_index cfg ~ix ~iy ~iz:zp) <- w);
  { p_config = cfg; p_extent = extent; p_matrix = entry.ce_matrix;
    p_rhs = rhs; p_cold_iters = entry.ce_cold_iters;
    p_mg = entry.ce_mg; p_blur = entry.ce_blur }

let multigrid p =
  match !(p.p_mg) with
  | Some h when Multigrid.fine_dim h = Sparse.dim p.p_matrix -> h
  | _ ->
    let cfg = p.p_config in
    let h =
      Multigrid.build ~fine:p.p_matrix ~nx:cfg.nx ~ny:cfg.ny
        ~nz:(Stack.num_layers cfg.stack)
        ~assemble:(fun ~nx ~ny ->
            assemble_raw { cfg with nx; ny } ~extent:p.p_extent)
        ()
    in
    (* benign race: two domains may build concurrently and the later write
       wins, but both hierarchies come from the same matrix so either is
       valid (mirrors the matrix cache's assemble-outside-the-lock policy) *)
    p.p_mg := Some h;
    h

type precond_choice = Pc_jacobi | Pc_ssor of float | Pc_mg

let precond_choice_name = function
  | Pc_jacobi -> "jacobi"
  | Pc_ssor _ -> "ssor"
  | Pc_mg -> "mg"

let precond_of_choice p = function
  | Pc_jacobi -> Cg.Jacobi
  | Pc_ssor omega -> Cg.Ssor omega
  | Pc_mg -> Cg.Multigrid (multigrid p)

type solution = {
  config : config;
  extent : Geo.Rect.t;
  temp : float array;
  cg_iterations : int;
  cg_residual : float;
  cg_rungs : string list;
}

let solve_result ?(tol = Cg.default_tol) ?max_iter ?precond ?x0 p =
  Obs.Trace.with_span "thermal.solve" @@ fun () ->
  let esc =
    Cg.solve_escalating p.p_matrix ~b:p.p_rhs ~tol ?max_iter ?precond ?x0 ()
  in
  let outcome = esc.Cg.esc_outcome in
  match esc.Cg.esc_status with
  | Cg.Degraded ->
    Error
      (Robust.Error.Solver_diverged
         { residual = outcome.Cg.residual;
           iterations = outcome.Cg.iterations;
           rungs = "requested" :: esc.Cg.esc_rungs })
  | Cg.Clean | Cg.Recovered _ ->
    (match esc.Cg.esc_status with
     | Cg.Recovered rung ->
       Obs.Log.warn
         (Printf.sprintf "Mesh.solve: recovered via %s escalation rung" rung)
     | _ -> ());
    (* warm-start bookkeeping only applies to clean solves: a recovered
       rung ran cold under a different configuration, so comparing its
       iteration count against the cold baseline would be meaningless *)
    (match esc.Cg.esc_status, x0, !(p.p_cold_iters) with
     | Cg.Clean, None, None -> p.p_cold_iters := Some outcome.Cg.iterations
     | Cg.Clean, Some _, Some cold ->
       Obs.Metrics.observe "thermal.mesh.warm.saved_iterations"
         (float_of_int (cold - outcome.Cg.iterations))
     | _ -> ());
    Ok { config = p.p_config; extent = p.p_extent; temp = outcome.Cg.x;
         cg_iterations = outcome.Cg.iterations;
         cg_residual = outcome.Cg.residual;
         cg_rungs = esc.Cg.esc_rungs }

let solve ?tol ?max_iter ?precond ?x0 p =
  match solve_result ?tol ?max_iter ?precond ?x0 p with
  | Ok s -> s
  | Error e -> Robust.Error.raise_ e

let layer_grid s ~iz =
  let cfg = s.config in
  Geo.Grid.of_function ~nx:cfg.nx ~ny:cfg.ny ~extent:s.extent
    ~f:(fun ~ix ~iy -> s.temp.(node_index cfg ~ix ~iy ~iz))

let active_layer_grid s =
  layer_grid s ~iz:s.config.stack.Stack.power_layer

(* The blur's modal transfer. In lateral mode (kx, ky), with eigenvalues
   lx and ly (see Blur.of_modes), the stack is a column of nz nodes: node
   iz has its own ground (its faces plus g_x lx + g_y ly, the mode's
   lateral term) and couples to iz + 1 through g_v. Power enters the
   power layer pl alone, so G is the pl diagonal entry of the inverse of
   that tridiagonal matrix: 1 / (d(pl) - B - U), with B and U the Schur
   complements of the layers below and above. Each sweep is written as
   conductances in series — the layers below present
   g_v s / (g_v + s) to the next one up, s being a layer's own ground
   plus what presents to it from further below — which is the same
   recurrence without subtracting nearly equal numbers. *)
let blur_defined cfg =
  cfg.stack.Stack.h_top_w_m2k > 0.0 || cfg.stack.Stack.h_bottom_w_m2k > 0.0

let blur p =
  let cfg = p.p_config in
  match !(p.p_blur) with
  | Some b when Blur.nx b = cfg.nx && Blur.ny b = cfg.ny -> b
  | _ ->
    Obs.Trace.with_span "thermal.blur.characterize" @@ fun () ->
    let c = conductances cfg ~extent:p.p_extent in
    let nz = Stack.num_layers cfg.stack in
    let pl = cfg.stack.Stack.power_layer in
    if not (blur_defined cfg) then
      invalid_arg "Mesh.blur: no top or bottom heat path, the uniform mode \
                   of the adiabatic die is singular";
    let face =
      Array.init nz (fun iz ->
          (if iz = 0 then c.g_bottom else 0.0)
          +. if iz = nz - 1 then c.g_top else 0.0)
    in
    (* the sweeps are written out so no float crosses a call *)
    let transfer ~lx ~ly =
      let below = ref 0.0 in
      for iz = 0 to pl - 1 do
        let s =
          face.(iz) +. (c.g_x.(iz) *. lx) +. (c.g_y.(iz) *. ly) +. !below
        in
        let g = c.g_v.(iz) in
        below := g *. s /. (g +. s)
      done;
      let above = ref 0.0 in
      for iz = nz - 1 downto pl + 1 do
        let s =
          face.(iz) +. (c.g_x.(iz) *. lx) +. (c.g_y.(iz) *. ly) +. !above
        in
        let g = c.g_v.(iz - 1) in
        above := g *. s /. (g +. s)
      done;
      1.0
      /. (face.(pl) +. (c.g_x.(pl) *. lx) +. (c.g_y.(pl) *. ly) +. !below
          +. !above)
    in
    let b =
      Blur.of_modes ~nx:cfg.nx ~ny:cfg.ny ~extent:p.p_extent ~transfer
    in
    (* benign race, same policy as [multigrid]: concurrent characterizers
       derive the same transfer, so the last write wins *)
    p.p_blur := Some b;
    b
