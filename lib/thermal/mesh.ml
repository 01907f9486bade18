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
  (* lazily characterized power-blurring kernel (unit-impulse response),
     shared across the cache entry so screening pays characterization once
     per (config, extent) *)
}

let matrix p = p.p_matrix
let rhs p = p.p_rhs
let config p = p.p_config
let extent p = p.p_extent

(* Same cached matrix (and MG hierarchy / blur kernel riding the cache
   entry), different right-hand side — the adjoint solve and the blur
   characterization both inject custom sources into the same operator. *)
let with_rhs p rhs =
  if Array.length rhs <> Array.length p.p_rhs then
    invalid_arg "Mesh.with_rhs: rhs dimension mismatch";
  { p with p_rhs = rhs }

let node_index cfg ~ix ~iy ~iz =
  assert (ix >= 0 && ix < cfg.nx && iy >= 0 && iy < cfg.ny
          && iz >= 0 && iz < Stack.num_layers cfg.stack);
  (((iz * cfg.ny) + iy) * cfg.nx) + ix

let um_to_m v = v *. 1.0e-6

(* Conductance between two stacked cells: half-cell resistances in series,
   each R = (thickness/2) / (k * A). *)
let vertical_conductance ~area_m2 (a : Stack.layer) (b : Stack.layer) =
  let r_half (l : Stack.layer) =
    um_to_m l.Stack.thickness_um /. 2.0
    /. (l.Stack.conductivity_w_mk *. area_m2)
  in
  1.0 /. (r_half a +. r_half b)

(* Lateral conductance inside one layer: uniform k, full cell pitch. *)
let lateral_conductance ~k ~cross_m2 ~pitch_m = k *. cross_m2 /. pitch_m

(* Conductance-matrix assembly. The matrix depends only on (config, extent)
   — power enters through the rhs alone — which is what makes the matrix
   cache below sound. *)
let assemble_builder cfg ~extent =
  let stack = cfg.stack in
  let nz = Stack.num_layers stack in
  let n = cfg.nx * cfg.ny * nz in
  let dx = um_to_m (Geo.Rect.width extent /. float_of_int cfg.nx) in
  let dy = um_to_m (Geo.Rect.height extent /. float_of_int cfg.ny) in
  let tile_area = dx *. dy in
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
  for iz = 0 to nz - 1 do
    let layer = stack.Stack.layers.(iz) in
    let dz = um_to_m layer.Stack.thickness_um in
    let k = layer.Stack.conductivity_w_mk in
    for iy = 0 to cfg.ny - 1 do
      for ix = 0 to cfg.nx - 1 do
        let i = node_index cfg ~ix ~iy ~iz in
        (* lateral east and north couplings (west/south added by peers) *)
        if ix + 1 < cfg.nx then
          couple i (node_index cfg ~ix:(ix + 1) ~iy ~iz)
            (lateral_conductance ~k ~cross_m2:(dy *. dz) ~pitch_m:dx);
        if iy + 1 < cfg.ny then
          couple i (node_index cfg ~ix ~iy:(iy + 1) ~iz)
            (lateral_conductance ~k ~cross_m2:(dx *. dz) ~pitch_m:dy);
        (* vertical coupling upward *)
        if iz + 1 < nz then
          couple i (node_index cfg ~ix ~iy ~iz:(iz + 1))
            (vertical_conductance ~area_m2:tile_area layer
               stack.Stack.layers.(iz + 1));
        (* boundary conductances to ambient *)
        if iz = 0 then ground i (stack.Stack.h_bottom_w_m2k *. tile_area);
        if iz = nz - 1 then ground i (stack.Stack.h_top_w_m2k *. tile_area);
        let h_side = stack.Stack.h_side_w_m2k in
        if h_side > 0.0 then begin
          if ix = 0 || ix = cfg.nx - 1 then ground i (h_side *. dy *. dz);
          if iy = 0 || iy = cfg.ny - 1 then ground i (h_side *. dx *. dz)
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

(* Characterization tolerance: the transfer deconvolved from this solve
   is *exact* for the discrete operator (the lateral stencil is
   translation-invariant with adiabatic walls), so solver error is the
   only error screening estimates inherit — solve the impulse tight and
   the kernel repays it across thousands of evaluations. *)
let blur_tol = 1e-10

let blur ?(precond = Pc_mg) p =
  let cfg = p.p_config in
  match !(p.p_blur) with
  | Some b when Blur.nx b = cfg.nx && Blur.ny b = cfg.ny -> b
  | _ ->
    Obs.Trace.with_span "thermal.blur.characterize" @@ fun () ->
    let n = Array.length p.p_rhs in
    let rhs = Array.make n 0.0 in
    (* corner tile: its extension images sit at indices 0 and 2n-1 per
       axis, whose spectrum never vanishes on an informative mode — see
       Blur.of_response. (A center impulse would zero out near half the
       spectrum and make the deconvolution singular.) *)
    rhs.(node_index cfg ~ix:0 ~iy:0 ~iz:cfg.stack.Stack.power_layer) <- 1.0;
    let ip = { p with p_rhs = rhs } in
    (* the explicit zero x0 is numerically a cold start but keeps the
       impulse solve out of the warm-start bookkeeping: its iteration
       count must not become the cache entry's cold baseline *)
    let solution =
      solve ~tol:blur_tol ~precond:(precond_of_choice ip precond)
        ~x0:(Array.make n 0.0) ip
    in
    let b = Blur.of_response ~response:(active_layer_grid solution) in
    (* benign race, same policy as [multigrid]: concurrent characterizers
       derive the kernel from the same matrix, so the last write wins and
       either kernel is valid *)
    p.p_blur := Some b;
    b
