(* Tests for power estimation and power-map binning. *)

module B = Netlist.Builder
module K = Celllib.Kind

let tech = Celllib.Tech.default_65nm

(* A one-gate circuit: pi -> INV -> po, for closed-form checks. *)
let single_inv () =
  let b = B.create () in
  let a = B.add_input b in
  let n = B.add_gate b K.Inv [| a |] in
  B.mark_output b n;
  (B.finish b, n)

let test_single_inv_closed_form () =
  let nl, out = single_inv () in
  let alpha = 0.5 in
  let rates = Array.make (Netlist.Types.num_nets nl) 0.0 in
  rates.(out) <- alpha;
  let r = Power.Model.compute_without_wires nl tech ~toggle_rate:rates in
  let info = Celllib.Info.get K.Inv in
  (* no sinks on the output net, so C = internal cap only *)
  let expected_dyn =
    0.5 *. alpha *. info.Celllib.Info.internal_cap_ff *. 1.0e-15
    *. tech.Celllib.Tech.vdd_v *. tech.Celllib.Tech.vdd_v
    *. tech.Celllib.Tech.clock_freq_hz
  in
  Alcotest.(check (float 1e-15)) "dynamic" expected_dyn
    r.Power.Model.dynamic_w;
  Alcotest.(check (float 1e-15)) "leakage"
    (info.Celllib.Info.leakage_nw *. 1.0e-9)
    r.Power.Model.leakage_w;
  Alcotest.(check (float 1e-15)) "per-cell = total"
    (Power.Model.total_w r) r.Power.Model.per_cell_w.(0)

let test_fanout_pin_caps_counted () =
  let b = B.create () in
  let a = B.add_input b in
  let n = B.add_gate b K.Inv [| a |] in
  let s1 = B.add_gate b K.Buf [| n |] in
  let s2 = B.add_gate b K.Buf [| n |] in
  B.mark_output b s1;
  B.mark_output b s2;
  let nl = B.finish b in
  let rates = Array.make (Netlist.Types.num_nets nl) 0.0 in
  rates.(n) <- 1.0;
  let r = Power.Model.compute_without_wires nl tech ~toggle_rate:rates in
  let inv = Celllib.Info.get K.Inv and buf = Celllib.Info.get K.Buf in
  let cap =
    inv.Celllib.Info.internal_cap_ff
    +. (2.0 *. buf.Celllib.Info.input_cap_ff)
  in
  let expected =
    0.5 *. cap *. 1.0e-15 *. tech.Celllib.Tech.clock_freq_hz
  in
  Alcotest.(check (float 1e-12)) "two sink pins counted" expected
    r.Power.Model.dynamic_w

let test_zero_activity_means_leakage_only () =
  let nl, _ = single_inv () in
  let rates = Array.make (Netlist.Types.num_nets nl) 0.0 in
  let r = Power.Model.compute_without_wires nl tech ~toggle_rate:rates in
  Alcotest.(check (float 0.0)) "no dynamic" 0.0 r.Power.Model.dynamic_w;
  Alcotest.(check bool) "leakage remains" true (r.Power.Model.leakage_w > 0.0)

let test_rate_length_checked () =
  let nl, _ = single_inv () in
  (match
     Power.Model.compute_without_wires nl tech ~toggle_rate:[| 0.1 |]
   with
   | _ -> Alcotest.fail "length mismatch accepted"
   | exception Invalid_argument _ -> ())

(* --- with placement / wires ---------------------------------------------- *)

let placed_small () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let areas =
    Array.map
      (fun u ->
         let tag = u.Netgen.Benchmark.tag in
         ( tag,
           List.fold_left
             (fun acc cid ->
                acc
                +. Celllib.Info.area_um2 tech
                     (Netlist.Types.cell nl cid).Netlist.Types.kind)
             0.0
             (Netlist.Types.cells_of_unit nl tag) ))
      bench.Netgen.Benchmark.units
  in
  let total = Array.fold_left (fun s (_, a) -> s +. a) 0.0 areas in
  let fp =
    Place.Floorplan.create tech ~cell_area_um2:total ~utilization:0.8
      ~aspect:1.0
  in
  let regions = Place.Regions.pack fp ~areas in
  let cells tag =
    Array.of_list (Netlist.Types.cells_of_unit nl tag)
  in
  let pos = Place.Global.place nl tech ~regions ~cells_of_region:cells in
  (bench, Place.Legalize.run nl fp ~regions ~cells_of_region:cells
     ~positions:pos)

let test_wire_cap_increases_power () =
  let bench, pl = placed_small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let rates = Array.make (Netlist.Types.num_nets nl) 0.2 in
  let with_wires = Power.Model.compute pl ~toggle_rate:rates in
  let without = Power.Model.compute_without_wires nl tech ~toggle_rate:rates in
  Alcotest.(check bool) "wires add dynamic power" true
    (with_wires.Power.Model.dynamic_w > without.Power.Model.dynamic_w);
  Alcotest.(check (float 1e-12)) "leakage unchanged"
    without.Power.Model.leakage_w with_wires.Power.Model.leakage_w

let test_unit_power_partition () =
  let bench, pl = placed_small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let rates = Array.make (Netlist.Types.num_nets nl) 0.2 in
  let r = Power.Model.compute pl ~toggle_rate:rates in
  let sum_units =
    Array.fold_left
      (fun acc u ->
         acc +. Power.Model.unit_power_w nl r ~tag:u.Netgen.Benchmark.tag)
      0.0 bench.Netgen.Benchmark.units
  in
  Alcotest.(check (float 1e-12)) "unit powers partition the total"
    (Power.Model.total_w r) sum_units

let test_hot_unit_dominates () =
  let bench, pl = placed_small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let w = Logicsim.Workload.make ~default:0.02 ~hot:[ (0, 0.5) ] in
  let sim = Logicsim.Sim.create nl in
  let act =
    Logicsim.Activity.measure sim w (Geo.Rng.create 7) ~warmup:32 ~cycles:400
  in
  let r =
    Power.Model.compute pl ~toggle_rate:act.Logicsim.Activity.toggle_rate
  in
  let p0 = Power.Model.unit_power_w nl r ~tag:0 in
  let p1 = Power.Model.unit_power_w nl r ~tag:1 in
  (* unit 0 (hot multiplier) must consume several times unit 1 (idle adder) *)
  Alcotest.(check bool)
    (Printf.sprintf "hot %.2euW vs cold %.2euW" (p0 *. 1e6) (p1 *. 1e6))
    true (p0 > 3.0 *. p1)

(* --- power maps ----------------------------------------------------------- *)

let test_power_map_conserves_total () =
  let bench, pl = placed_small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let rates = Array.make (Netlist.Types.num_nets nl) 0.3 in
  let r = Power.Model.compute pl ~toggle_rate:rates in
  let map = Power.Map.power_map pl ~per_cell_w:r.Power.Model.per_cell_w
      ~nx:16 ~ny:16 in
  Alcotest.(check (float 1e-9)) "map total = circuit power"
    (Power.Model.total_w r) (Geo.Grid.total map)

let test_density_map_scaling () =
  let bench, pl = placed_small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let rates = Array.make (Netlist.Types.num_nets nl) 0.3 in
  let r = Power.Model.compute pl ~toggle_rate:rates in
  let pm = Power.Map.power_map pl ~per_cell_w:r.Power.Model.per_cell_w
      ~nx:8 ~ny:8 in
  let dm = Power.Map.density_map pl ~per_cell_w:r.Power.Model.per_cell_w
      ~nx:8 ~ny:8 in
  Alcotest.(check (float 1e-12)) "density = power / tile area"
    (Geo.Grid.max_value pm /. Geo.Grid.tile_area pm)
    (Geo.Grid.max_value dm)

let test_power_map_localizes_hot_unit () =
  let bench, pl = placed_small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let w = Logicsim.Workload.make ~default:0.02 ~hot:[ (0, 0.5) ] in
  let sim = Logicsim.Sim.create nl in
  let act =
    Logicsim.Activity.measure sim w (Geo.Rng.create 7) ~warmup:32 ~cycles:400
  in
  let r =
    Power.Model.compute pl ~toggle_rate:act.Logicsim.Activity.toggle_rate
  in
  let map = Power.Map.power_map pl ~per_cell_w:r.Power.Model.per_cell_w
      ~nx:16 ~ny:16 in
  let ix, iy = Geo.Grid.argmax map in
  let hottest = Geo.Grid.tile_rect map ~ix ~iy in
  (* the hottest tile must sit inside the hot unit's placement region *)
  let hot_cells = Netlist.Types.cells_of_unit nl 0 in
  let inside =
    List.exists
      (fun cid ->
         Geo.Rect.intersects hottest (Place.Placement.cell_rect pl cid))
      hot_cells
  in
  Alcotest.(check bool) "hottest tile overlaps hot unit" true inside

let () =
  Alcotest.run "power"
    [ ("model",
       [ Alcotest.test_case "single inv closed form" `Quick
           test_single_inv_closed_form;
         Alcotest.test_case "fanout pin caps" `Quick
           test_fanout_pin_caps_counted;
         Alcotest.test_case "leakage only at zero activity" `Quick
           test_zero_activity_means_leakage_only;
         Alcotest.test_case "rate length checked" `Quick
           test_rate_length_checked;
         Alcotest.test_case "wire cap increases power" `Quick
           test_wire_cap_increases_power;
         Alcotest.test_case "unit power partition" `Quick
           test_unit_power_partition;
         Alcotest.test_case "hot unit dominates" `Quick
           test_hot_unit_dominates ]);
      ("map",
       [ Alcotest.test_case "conserves total" `Quick
           test_power_map_conserves_total;
         Alcotest.test_case "density scaling" `Quick
           test_density_map_scaling;
         Alcotest.test_case "localizes hot unit" `Quick
           test_power_map_localizes_hot_unit ]) ]
