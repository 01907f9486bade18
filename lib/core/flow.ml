module P = Place.Placement

type screen_choice = Screen_auto

type guide_choice = Guide_peak | Guide_gradient

(* One name table: the CLI's option parser and the serve request codec
   both spell the guide through it. *)
let guides = [ ("peak", Guide_peak); ("gradient", Guide_gradient) ]
let guide_names = List.map fst guides

let guide_of_name s =
  match List.assoc_opt s guides with
  | Some g -> Ok g
  | None -> Error (Printf.sprintf "unknown guide %S" s)

type t = {
  bench : Netgen.Benchmark.t;
  tech : Celllib.Tech.t;
  workload : Logicsim.Workload.t;
  activity : Logicsim.Activity.report;
  unit_areas : (int * float) array;
  base_placement : P.t;
  base_regions : Place.Regions.region array;
  positions : Place.Global.positions;
  per_cell_w : float array;
  power_report : Power.Model.report;
  seed : int;
  base_utilization : float;
  mesh_config : Thermal.Mesh.config;
}

let mesh_config_name (cfg : Thermal.Mesh.config) =
  Printf.sprintf "%dx%dx%d" cfg.Thermal.Mesh.nx cfg.Thermal.Mesh.ny
    (Thermal.Stack.num_layers cfg.Thermal.Mesh.stack)

let mesh_name t = mesh_config_name t.mesh_config

(* The fingerprint is a pure function of the configuration, so it can be
   computed from a job request *before* paying for [prepare] — the serve
   loop batches same-fingerprint jobs on exactly this identity. The
   solver is not a choice; [precond=mg] stays so older ledger records
   compare. *)
let config_fingerprint ?(extra = []) ~mesh_config ~seed ~utilization () =
  String.concat "|"
    ([ "mesh=" ^ mesh_config_name mesh_config;
       "precond=mg";
       Printf.sprintf "seed=%d" seed;
       Printf.sprintf "util=%g" utilization ]
     @ List.map (fun (k, v) -> k ^ "=" ^ v) extra)

let unit_cell_ids nl tag = Array.of_list (Netlist.Types.cells_of_unit nl tag)

let cells_of_region t tag = unit_cell_ids t.bench.Netgen.Benchmark.netlist tag

let compute_unit_areas tech bench =
  let nl = bench.Netgen.Benchmark.netlist in
  Array.map
    (fun u ->
       let tag = u.Netgen.Benchmark.tag in
       let area =
         List.fold_left
           (fun acc cid ->
              acc
              +. Celllib.Info.area_um2 tech
                   (Netlist.Types.cell nl cid).Netlist.Types.kind)
           0.0
           (Netlist.Types.cells_of_unit nl tag)
       in
       (tag, area))
    bench.Netgen.Benchmark.units

let prepare ?(seed = 42) ?(utilization = 0.85) ?(sim_cycles = 1000)
    ?(warmup_cycles = 64) ?(mesh_config = Thermal.Mesh.default_config)
    bench workload =
  Obs.Trace.with_span "flow.prepare" @@ fun () ->
  Robust.Cancel.check ();
  let tech = Celllib.Tech.default_65nm in
  let nl = bench.Netgen.Benchmark.netlist in
  let activity =
    Obs.Trace.with_span "flow.activity" @@ fun () ->
    let sim = Logicsim.Sim.create nl in
    Logicsim.Activity.measure sim workload
      (Geo.Rng.split (Geo.Rng.create seed))
      ~warmup:warmup_cycles ~cycles:sim_cycles
  in
  Robust.Cancel.check ();
  let unit_areas = compute_unit_areas tech bench in
  let total_area = Array.fold_left (fun s (_, a) -> s +. a) 0.0 unit_areas in
  let fp, regions =
    Obs.Trace.with_span "flow.floorplan" @@ fun () ->
    let fp =
      Place.Floorplan.create tech ~cell_area_um2:total_area ~utilization
        ~aspect:1.0
    in
    (fp, Place.Regions.pack fp ~areas:unit_areas)
  in
  let cells_of tag = unit_cell_ids nl tag in
  let positions =
    Place.Global.place nl tech ~regions ~cells_of_region:cells_of
  in
  let base_placement =
    Technique.legalize nl fp ~regions ~cells_of_region:cells_of ~positions
  in
  let power =
    Obs.Trace.with_span "flow.power" @@ fun () ->
    Power.Model.compute base_placement
      ~toggle_rate:activity.Logicsim.Activity.toggle_rate
  in
  { bench; tech; workload; activity; unit_areas; base_placement;
    base_regions = regions; positions;
    per_cell_w = power.Power.Model.per_cell_w; power_report = power; seed;
    base_utilization = utilization; mesh_config }

type evaluation = {
  placement : P.t;
  power_map : Geo.Grid.t;
  thermal_map : Geo.Grid.t;
  metrics : Thermal.Metrics.t;
  hotspots : Hotspot.t list;
  timing : Sta.Timing.result;
}

let ( let* ) = Result.bind

let flow_power_map t pl =
  Obs.Trace.with_span "power.map" @@ fun () ->
  let cfg = t.mesh_config in
  let map =
    Power.Map.power_map pl ~per_cell_w:t.per_cell_w
      ~nx:cfg.Thermal.Mesh.nx ~ny:cfg.Thermal.Mesh.ny
  in
  (* fault hook: one poisoned tile, caught by the power invariant check
     before it can NaN-poison the thermal solve *)
  if Robust.Faults.consume Robust.Faults.Nan_power then
    Geo.Grid.set map ~ix:0 ~iy:0 Float.nan;
  map

let solve_power_result ?mesh_config t power =
  let cfg = Option.value mesh_config ~default:t.mesh_config in
  Thermal.Mesh.solve_result (Thermal.Mesh.build cfg ~power)

let solve_power ?mesh_config t power =
  match solve_power_result ?mesh_config t power with
  | Ok s -> s
  | Error e -> Robust.Error.raise_ e

let evaluate_result t pl =
  Obs.Trace.with_span "flow.evaluate" @@ fun () ->
  (* cancellation point: every candidate evaluation passes through here,
     so a job past its deadline aborts within one solve *)
  Robust.Cancel.check ();
  let power_map = flow_power_map t pl in
  let* () = Robust.Validate.first_failure [ Checks.power_map power_map ] in
  let* solution = solve_power_result t power_map in
  let thermal_map = Thermal.Mesh.active_layer_grid solution in
  let* () =
    Robust.Validate.first_failure [ Checks.temperature thermal_map ]
  in
  let metrics = Thermal.Metrics.of_map thermal_map in
  let hotspots =
    Obs.Trace.with_span "hotspot.detect" @@ fun () ->
    Hotspot.detect ~thermal:thermal_map ~placement:pl ()
  in
  Obs.Metrics.observe "hotspot.count"
    (float_of_int (List.length hotspots));
  Obs.Metrics.observe "hotspot.tiles"
    (float_of_int
       (List.fold_left (fun acc h -> acc + Hotspot.tile_count h) 0 hotspots));
  Obs.Metrics.observe "hotspot.area_um2"
    (List.fold_left (fun acc h -> acc +. Geo.Rect.area h.Hotspot.rect) 0.0
       hotspots);
  Obs.Metrics.observe "flow.peak_rise_k" metrics.Thermal.Metrics.peak_rise_k;
  Obs.Metrics.observe "flow.evaluate.peak_rise_k"
    ~labels:[ ("mesh", mesh_name t) ]
    metrics.Thermal.Metrics.peak_rise_k;
  let timing =
    Obs.Trace.with_span "sta.analyze" @@ fun () ->
    Sta.Timing.analyze pl ~thermal_map ()
  in
  Ok { placement = pl; power_map; thermal_map; metrics; hotspots; timing }

let evaluate t pl =
  match evaluate_result t pl with
  | Ok e -> e
  | Error e -> Robust.Error.raise_ e

let sensitivity_result ?sharpness t pl =
  Obs.Trace.with_span "flow.sensitivity" @@ fun () ->
  Robust.Cancel.check ();
  let power_map = flow_power_map t pl in
  let* () = Robust.Validate.first_failure [ Checks.power_map power_map ] in
  Thermal.Adjoint.solve_result ?sharpness
    (Thermal.Mesh.build t.mesh_config ~power:power_map)

let sensitivity ?sharpness t pl =
  match sensitivity_result ?sharpness t pl with
  | Ok a -> a
  | Error e -> Robust.Error.raise_ e

let check_design t pl =
  Obs.Trace.with_span "flow.check" @@ fun () ->
  let cfg = t.mesh_config in
  let power_map = flow_power_map t pl in
  let problem = Thermal.Mesh.build cfg ~power:power_map in
  let pre =
    Robust.Validate.run_all
      [ Checks.placement pl; Checks.floorplan pl;
        Checks.power_map power_map;
        Checks.mesh_matrix (Thermal.Mesh.stencil problem) ]
  in
  match Thermal.Mesh.solve_result problem with
  | Ok solution ->
    pre
    @ Robust.Validate.run_all
        [ Checks.temperature (Thermal.Mesh.active_layer_grid solution) ]
  | Error e ->
    (* the solve itself failing is reported as a failed pseudo-check so
       the caller sees one uniform outcome list *)
    pre
    @ [ { Robust.Validate.check_name = "thermal.solve";
          failure = Some (Robust.Error.to_string e) } ]

let apply_default t ~utilization =
  let nl = t.bench.Netgen.Benchmark.netlist in
  Technique.uniform_slack nl t.tech ~unit_areas:t.unit_areas
    ~cells_of_region:(cells_of_region t) ~positions:t.positions
    ~from_core:t.base_placement.P.fp.Place.Floorplan.core ~utilization

let apply_power_aware t ~utilization =
  let nl = t.bench.Netgen.Benchmark.netlist in
  let unit_powers =
    Array.map
      (fun (tag, _) ->
         (tag,
          Power.Model.unit_power_w nl t.power_report ~tag))
      t.unit_areas
  in
  Technique.power_aware_slack nl t.tech ~unit_areas:t.unit_areas
    ~unit_powers ~cells_of_region:(cells_of_region t)
    ~positions:t.positions
    ~from_core:t.base_placement.P.fp.Place.Floorplan.core ~utilization

let rows_for_overhead ?(nearest = false) t frac =
  let rows =
    frac *. float_of_int t.base_placement.P.fp.Place.Floorplan.num_rows
  in
  max 1 (int_of_float (if nearest then Float.round rows else rows))

let apply_eri t ~base ~rows =
  ignore t;
  Technique.empty_row_insertion base.placement
    ~hotspots:base.hotspots ~rows

let apply_hw t ~on ?margin_um ?max_hotspot_tiles () =
  ignore t;
  Technique.hotspot_wrapper on.placement ~hotspots:on.hotspots
    ?margin_um ?max_hotspot_tiles ()
