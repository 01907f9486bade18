type config = {
  nx : int;
  ny : int;
  stack : Stack.t;
}

let default_config = { nx = 40; ny = 40; stack = Stack.default_9layer }

type problem = {
  p_config : config;
  p_extent : Geo.Rect.t;
  p_shift : float array;
  (* per layer, W/(m^2 K): the extra ground of every tile ({!shifted});
     zeros for a steady problem *)
  p_stencil : Stencil.t;
  p_rhs : float array;
  p_poisoned : bool;
  (* the build consumed a Perturb_matrix fault: the fault is no longer
     armed, so only this flag keeps the solve on the CG path it targets *)
}

let stencil p = p.p_stencil
let rhs p = p.p_rhs
let config p = p.p_config
let extent p = p.p_extent

(* Same operator, different right-hand side — the adjoint solve injects
   its custom source into the same operator. *)
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
   definition the stencil and the blur's modal transfer share. In layer
   iz every east coupling is [g_x.(iz)] and every north one [g_y.(iz)]
   (uniform k, full cell pitch); the vertical coupling of every tile to
   layer iz + 1 is [g_v.(iz)] (half-cell resistances
   R = (thickness/2) / (k * A) in series); each tile of the bottom and
   top layers grounds through [g_bottom] and [g_top]; and each tile of
   layer iz also grounds through [g_shift.(iz)], the problem's shift
   times the tile area. *)
type conductances = {
  g_x : float array;
  g_y : float array;
  g_v : float array; (* nz - 1 entries *)
  g_bottom : float;
  g_top : float;
  g_shift : float array;
}

let conductances cfg ~extent ~shift =
  let stack = cfg.stack in
  let layers = stack.Stack.layers in
  let nz = Array.length layers in
  let dx = um_to_m (Geo.Rect.width extent /. float_of_int cfg.nx) in
  let dy = um_to_m (Geo.Rect.height extent /. float_of_int cfg.ny) in
  let tile_area = dx *. dy in
  let k iz = layers.(iz).Stack.conductivity_w_mk in
  let dz iz = um_to_m layers.(iz).Stack.thickness_um in
  let r_half iz = dz iz /. 2.0 /. (k iz *. tile_area) in
  { g_x = Array.init nz (fun iz -> k iz *. (dy *. dz iz) /. dx);
    g_y = Array.init nz (fun iz -> k iz *. (dx *. dz iz) /. dy);
    g_v =
      Array.init (nz - 1) (fun iz -> 1.0 /. (r_half iz +. r_half (iz + 1)));
    g_bottom = stack.Stack.h_bottom_w_m2k *. tile_area;
    g_top = stack.Stack.h_top_w_m2k *. tile_area;
    g_shift = Array.map (fun w -> w *. tile_area) shift }

(* Each layer's ground per tile: the bottom face on layer 0, the top face
   on the last layer (both on a one-layer stack), then the shift. *)
let face_grounds c =
  let nz = Array.length c.g_x in
  Array.init nz (fun iz ->
      ((if iz = 0 then c.g_bottom else 0.0)
       +. if iz = nz - 1 then c.g_top else 0.0)
      +. c.g_shift.(iz))

(* The conductance matrix as a stencil. A diagonal entry sums every
   conductance touching its node in a fixed order — below, south, west,
   east, north, above, then the bottom face and the top face, each
   ground only when positive — and the shift is added last
   ([Stencil.shift]; adding a zero shift leaves every entry as it was).
   Reordering the sum moves temperatures in the last bit; the pins in
   test_thermal.ml hold it. [poisoned] replaces layer 0's lateral
   couplings with NaN and leaves the diagonal alone (the Perturb_matrix
   fault). *)
let stencil_of cfg ~extent ~shift ~poisoned =
  let nz = Stack.num_layers cfg.stack in
  let c = conductances cfg ~extent ~shift in
  let diag ~xc ~yc ~iz =
    let d = ref 0.0 in
    let add g = d := !d +. g in
    let ground g = if g > 0.0 then add g in
    if iz > 0 then add c.g_v.(iz - 1);
    if yc land 1 <> 0 then add c.g_y.(iz);
    if xc land 1 <> 0 then add c.g_x.(iz);
    if xc land 2 <> 0 then add c.g_x.(iz);
    if yc land 2 <> 0 then add c.g_y.(iz);
    if iz < nz - 1 then add c.g_v.(iz);
    if iz = 0 then ground c.g_bottom;
    if iz = nz - 1 then ground c.g_top;
    !d
  in
  let lateral g =
    if poisoned then Array.mapi (fun iz v -> if iz = 0 then Float.nan else v) g
    else g
  in
  Stencil.shift
    (Stencil.make ~nx:cfg.nx ~ny:cfg.ny ~gx:(lateral c.g_x)
       ~gy:(lateral c.g_y) ~gz:c.g_v ~diag)
    c.g_shift

let no_shift cfg = Array.make (Stack.num_layers cfg.stack) 0.0

let check_stack ~fn cfg =
  match Stack.validate cfg.stack with
  | Ok () -> ()
  | Error msg -> invalid_arg (fn ^ ": " ^ msg)

let build cfg ~power =
  Obs.Trace.with_span "thermal.mesh.build" @@ fun () ->
  check_stack ~fn:"Mesh.build" cfg;
  if Geo.Grid.nx power <> cfg.nx || Geo.Grid.ny power <> cfg.ny then
    invalid_arg "Mesh.build: power grid dimensions mismatch";
  let extent = Geo.Grid.extent power in
  (* fault hook: NaN lateral couplings, which CG's breakdown guards and
     Checks.mesh_matrix must both catch; a single tile has none *)
  let poisoned =
    cfg.nx * cfg.ny > 1
    && Robust.Faults.consume Robust.Faults.Perturb_matrix
  in
  let shift = no_shift cfg in
  let stencil = stencil_of cfg ~extent ~shift ~poisoned in
  let rhs = Array.make (Stencil.dim stencil) 0.0 in
  let zp = cfg.stack.Stack.power_layer in
  Geo.Grid.iteri power ~f:(fun ~ix ~iy w ->
      rhs.(node_index cfg ~ix ~iy ~iz:zp) <- w);
  { p_config = cfg; p_extent = extent; p_shift = shift; p_stencil = stencil;
    p_rhs = rhs; p_poisoned = poisoned }

(* The poisoning of the build it derives from carries over. *)
let shifted p ~w_m2k =
  let shift = Array.map2 ( +. ) p.p_shift w_m2k in
  { p with
    p_shift = shift;
    p_stencil =
      stencil_of p.p_config ~extent:p.p_extent ~shift ~poisoned:p.p_poisoned }

type precond_choice = Pc_mg

type solution = {
  config : config;
  extent : Geo.Rect.t;
  temp : float array;
  cg_iterations : int;
  cg_residual : float;
  cg_rungs : string list;
}

(* ||b - A x|| / ||b||, 0 for a zero right-hand side. *)
let relative_residual stencil ~b x =
  let ax = Array.make (Array.length b) 0.0 in
  Stencil.mul stencil x ax;
  let rr = ref 0.0 and bb = ref 0.0 in
  for i = 0 to Array.length b - 1 do
    let d = b.(i) -. ax.(i) in
    rr := !rr +. (d *. d);
    bb := !bb +. (b.(i) *. b.(i))
  done;
  if !bb = 0.0 then 0.0 else sqrt (!rr /. !bb)

(* The modal solve of [p]'s system, or [None] when its measured residual
   is not finite (a NaN or infinite source): CG and its retry then
   report the structured failure. *)
let modal_solution p =
  Obs.Trace.with_span "thermal.modal.solve" @@ fun () ->
  let cfg = p.p_config in
  let c = conductances cfg ~extent:p.p_extent ~shift:p.p_shift in
  let temp =
    Modal.solve ~nx:cfg.nx ~ny:cfg.ny ~face:(face_grounds c) ~g_x:c.g_x
      ~g_y:c.g_y ~g_v:c.g_v p.p_rhs
  in
  Obs.Metrics.count "thermal.modal.solves";
  let residual = relative_residual p.p_stencil ~b:p.p_rhs temp in
  if Float.is_finite residual then
    Some
      { config = cfg; extent = p.p_extent; temp; cg_iterations = 0;
        cg_residual = residual; cg_rungs = [] }
  else None

(* The modal engine solves unless a fault aimed at the solver is in
   play: an armed [Cg_stall], or a [Perturb_matrix] this build consumed,
   must reach the CG path it targets. The other faults do not route:
   [Nan_power] reaches CG through the non-finite residual, and
   [Kill_worker] aims at the pool, so a job carrying it solves as its
   clean batch mates do. *)
let modal_applies p =
  (not p.p_poisoned) && not (Robust.Faults.armed Robust.Faults.Cg_stall)

let cg_solution p =
  Obs.Trace.with_span "thermal.solve" @@ fun () ->
  let esc = Cg.solve_escalating p.p_stencil ~b:p.p_rhs () in
  let outcome = esc.Cg.esc_outcome in
  match esc.Cg.esc_status with
  | Cg.Degraded ->
    Error
      (Robust.Error.Solver_diverged
         { residual = outcome.Cg.residual;
           iterations = outcome.Cg.iterations;
           rungs = "requested" :: esc.Cg.esc_rungs })
  | Cg.Clean | Cg.Recovered ->
    if esc.Cg.esc_status = Cg.Recovered then
      Obs.Log.warn "Mesh.solve: recovered by the cold Jacobi restart";
    Ok { config = p.p_config; extent = p.p_extent; temp = outcome.Cg.x;
         cg_iterations = outcome.Cg.iterations;
         cg_residual = outcome.Cg.residual;
         cg_rungs = esc.Cg.esc_rungs }

let solve_result p =
  let modal =
    if modal_applies p then
      Obs.Trace.with_span "thermal.solve" (fun () -> modal_solution p)
    else None
  in
  match modal with
  | Some s ->
    (* the deadline checkpoint CG's iterations would have passed *)
    Robust.Cancel.check ();
    Ok s
  | None -> cg_solution p

let solve p =
  match solve_result p with
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
let blur cfg ~extent =
  Obs.Trace.with_span "thermal.blur.characterize" @@ fun () ->
  check_stack ~fn:"Mesh.blur" cfg;
  let c = conductances cfg ~extent ~shift:(no_shift cfg) in
  let nz = Stack.num_layers cfg.stack in
  let pl = cfg.stack.Stack.power_layer in
  let face = face_grounds c in
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
  Blur.of_modes ~nx:cfg.nx ~ny:cfg.ny ~extent ~transfer
