(* Tests for the probabilistic congestion estimator. *)

let tech = Celllib.Tech.default_65nm

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

let test_demand_conserves_wirelength () =
  let pl = placed_small () in
  let r = Route.Congestion.estimate pl ~nx:12 ~ny:12 () in
  let hpwl = Place.Placement.hpwl pl in
  let demand_total = Geo.Grid.total r.Route.Congestion.demand in
  if Float.abs (demand_total -. hpwl) /. hpwl > 1e-6 then
    Alcotest.failf "demand %.1f != HPWL %.1f" demand_total hpwl

let test_report_consistency () =
  let pl = placed_small () in
  let r = Route.Congestion.estimate pl () in
  Alcotest.(check bool) "capacity positive" true
    (r.Route.Congestion.capacity_um > 0.0);
  Alcotest.(check bool) "max utilization consistent" true
    (Float.abs
       (r.Route.Congestion.max_utilization
        -. (Geo.Grid.max_value r.Route.Congestion.demand
            /. r.Route.Congestion.capacity_um))
     < 1e-9);
  Alcotest.(check bool) "overflow nonnegative" true
    (r.Route.Congestion.overflow_um >= 0.0);
  if r.Route.Congestion.overflow_um > 0.0 then
    Alcotest.(check bool) "overflowed tiles counted" true
      (r.Route.Congestion.overflowed_tiles > 0)

let test_hotspot_demand_partition () =
  let pl = placed_small () in
  let r = Route.Congestion.estimate pl ~nx:10 ~ny:10 () in
  let core = pl.Place.Placement.fp.Place.Floorplan.core in
  let whole = Route.Congestion.hotspot_demand r core in
  Alcotest.(check bool) "whole-core demand = total" true
    (Float.abs (whole -. Geo.Grid.total r.Route.Congestion.demand) < 1e-6);
  let left =
    Route.Congestion.hotspot_demand r
      (Geo.Rect.make ~lx:core.Geo.Rect.lx ~ly:core.Geo.Rect.ly
         ~hx:(Geo.Rect.center_x core) ~hy:core.Geo.Rect.hy)
  in
  let right =
    Route.Congestion.hotspot_demand r
      (Geo.Rect.make ~lx:(Geo.Rect.center_x core) ~ly:core.Geo.Rect.ly
         ~hx:core.Geo.Rect.hx ~hy:core.Geo.Rect.hy)
  in
  Alcotest.(check bool) "halves partition the demand" true
    (Float.abs (left +. right -. whole) < 1e-6)

let test_more_capacity_less_overflow () =
  let pl = placed_small () in
  let r2 = Route.Congestion.estimate pl ~layers:2 () in
  let r8 = Route.Congestion.estimate pl ~layers:8 () in
  Alcotest.(check bool) "more layers -> lower utilization" true
    (r8.Route.Congestion.max_utilization
     < r2.Route.Congestion.max_utilization)

let () =
  Alcotest.run "route"
    [ ("congestion",
       [ Alcotest.test_case "demand conserves wirelength" `Quick
           test_demand_conserves_wirelength;
         Alcotest.test_case "report consistency" `Quick
           test_report_consistency;
         Alcotest.test_case "hotspot demand partition" `Quick
           test_hotspot_demand_partition;
         Alcotest.test_case "capacity scaling" `Quick
           test_more_capacity_less_overflow ]) ]
