(* Tests for static timing analysis with temperature derating. *)

module B = Netlist.Builder
module K = Celllib.Kind

let tech = Celllib.Tech.default_65nm

let inv_chain n =
  let b = B.create () in
  let a = B.add_input b in
  let prev = ref a in
  for _ = 1 to n do
    prev := B.add_gate b K.Inv [| !prev |]
  done;
  B.mark_output b !prev;
  B.finish b

(* Closed-form critical path of an unloaded inverter chain: every stage but
   the last drives one INV input pin, the last drives nothing. *)
let chain_delay_ps n =
  let info = Celllib.Info.get K.Inv in
  let stage_loaded =
    info.Celllib.Info.intrinsic_ps
    +. (info.Celllib.Info.slope_ps_per_ff *. info.Celllib.Info.input_cap_ff)
  in
  (float_of_int (n - 1) *. stage_loaded) +. info.Celllib.Info.intrinsic_ps

let test_unplaced_chain_closed_form () =
  let nl = inv_chain 5 in
  let r = Sta.Timing.analyze_unplaced nl tech in
  Alcotest.(check (float 1e-6)) "5-inv critical path" (chain_delay_ps 5)
    r.Sta.Timing.critical_ps

let test_critical_path_cells () =
  let nl = inv_chain 4 in
  let r = Sta.Timing.analyze_unplaced nl tech in
  Alcotest.(check int) "path has all four inverters" 4
    (List.length r.Sta.Timing.critical_path);
  (* path cells must be connected head-to-tail *)
  let rec connected = function
    | a :: (b :: _ as rest) ->
      let ca = Netlist.Types.cell nl a and cb = Netlist.Types.cell nl b in
      Array.mem ca.Netlist.Types.output cb.Netlist.Types.inputs
      && connected rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "path connected" true
    (connected r.Sta.Timing.critical_path)

let test_dff_cuts_path () =
  (* 3 inv + dff + 3 inv: the critical path is one 3-inv segment, not 6 *)
  let b = B.create () in
  let a = B.add_input b in
  let prev = ref a in
  for _ = 1 to 3 do prev := B.add_gate b K.Inv [| !prev |] done;
  let q = B.add_dff b ~d:!prev in
  prev := q;
  for _ = 1 to 3 do prev := B.add_gate b K.Inv [| !prev |] done;
  B.mark_output b !prev;
  let nl = B.finish b in
  let r = Sta.Timing.analyze_unplaced nl tech in
  (* segment feeding the DFF: 3 loaded stages (last one drives the DFF pin);
     segment after the DFF: 2 loaded + 1 unloaded. Either way the result is
     far below a 6-stage chain. *)
  Alcotest.(check bool) "path shorter than 6 stages" true
    (r.Sta.Timing.critical_ps < chain_delay_ps 6)

let test_arrival_monotone_along_chain () =
  let nl = inv_chain 6 in
  let r = Sta.Timing.analyze_unplaced nl tech in
  Netlist.Types.iter_cells nl ~f:(fun _ c ->
      let input_arrival = r.Sta.Timing.arrival_ps.(c.Netlist.Types.inputs.(0)) in
      let output_arrival = r.Sta.Timing.arrival_ps.(c.Netlist.Types.output) in
      Alcotest.(check bool) "arrival grows through a gate" true
        (output_arrival > input_arrival))

(* --- placed and temperature-derated ---------------------------------------- *)

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
  let cells tag = Array.of_list (Netlist.Types.cells_of_unit nl tag) in
  let pos = Place.Global.place nl tech ~regions ~cells_of_region:cells in
  Place.Legalize.run nl fp ~regions ~cells_of_region:cells ~positions:pos

let test_wires_slow_down () =
  let pl = placed_small () in
  let placed = Sta.Timing.analyze pl () in
  let unplaced = Sta.Timing.analyze_unplaced pl.Place.Placement.nl tech in
  Alcotest.(check bool) "wire load slows the design" true
    (placed.Sta.Timing.critical_ps > unplaced.Sta.Timing.critical_ps)

let test_uniform_temperature_derating () =
  let pl = placed_small () in
  let cold = Sta.Timing.analyze pl () in
  let rise = 10.0 in
  let hot_map =
    Geo.Grid.map
      (Geo.Grid.create ~nx:4 ~ny:4
         ~extent:pl.Place.Placement.fp.Place.Floorplan.core)
      ~f:(fun _ -> rise)
  in
  let hot = Sta.Timing.analyze pl ~thermal_map:hot_map () in
  let overhead = Sta.Timing.overhead_pct ~before:cold ~after:hot in
  (* 10 K rise with 0.4 %/K cell and 0.5 %/K wire derating: the critical
     path slows by 4..5 % *)
  if overhead < 3.9 || overhead > 5.1 then
    Alcotest.failf "10K derating gave %.2f%%, expected ~4-5%%" overhead

let test_hotter_is_slower_monotone () =
  let pl = placed_small () in
  let core = pl.Place.Placement.fp.Place.Floorplan.core in
  let map rise =
    Geo.Grid.map (Geo.Grid.create ~nx:4 ~ny:4 ~extent:core)
      ~f:(fun _ -> rise)
  in
  let t5 = Sta.Timing.analyze pl ~thermal_map:(map 5.0) () in
  let t15 = Sta.Timing.analyze pl ~thermal_map:(map 15.0) () in
  Alcotest.(check bool) "monotone in temperature" true
    (t15.Sta.Timing.critical_ps > t5.Sta.Timing.critical_ps)

let test_overhead_pct () =
  let mk ps =
    { Sta.Timing.arrival_ps = [||]; critical_ps = ps; critical_net = 0;
      critical_path = [] }
  in
  Alcotest.(check (float 1e-9)) "10% slower" 10.0
    (Sta.Timing.overhead_pct ~before:(mk 100.0) ~after:(mk 110.0));
  Alcotest.(check (float 1e-9)) "faster is negative" (-10.0)
    (Sta.Timing.overhead_pct ~before:(mk 100.0) ~after:(mk 90.0));
  Alcotest.(check (float 1e-9)) "degenerate" 0.0
    (Sta.Timing.overhead_pct ~before:(mk 0.0) ~after:(mk 5.0))

let () =
  Alcotest.run "sta"
    [ ("unplaced",
       [ Alcotest.test_case "chain closed form" `Quick
           test_unplaced_chain_closed_form;
         Alcotest.test_case "critical path cells" `Quick
           test_critical_path_cells;
         Alcotest.test_case "dff cuts path" `Quick test_dff_cuts_path;
         Alcotest.test_case "arrival monotone" `Quick
           test_arrival_monotone_along_chain ]);
      ("placed",
       [ Alcotest.test_case "wires slow down" `Quick test_wires_slow_down;
         Alcotest.test_case "uniform derating ~4-5%" `Quick
           test_uniform_temperature_derating;
         Alcotest.test_case "monotone in temperature" `Quick
           test_hotter_is_slower_monotone;
         Alcotest.test_case "overhead pct" `Quick test_overhead_pct ]) ]
