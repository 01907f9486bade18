(* Tests for the placement substrate: floorplan, regions, FM partitioning,
   global placement, legalization, fillers. *)

module T = Netlist.Types
module FP = Place.Floorplan
module P = Place.Placement

let tech = Celllib.Tech.default_65nm

(* --- floorplan ------------------------------------------------------------ *)

let test_floorplan_explicit () =
  let fp = FP.create_explicit tech ~num_rows:10 ~sites_per_row:50 in
  Alcotest.(check (float 1e-9)) "width"
    (50.0 *. tech.Celllib.Tech.site_width_um)
    (Geo.Rect.width fp.FP.core);
  Alcotest.(check (float 1e-9)) "height"
    (10.0 *. tech.Celllib.Tech.row_height_um)
    (Geo.Rect.height fp.FP.core);
  Alcotest.(check (float 1e-9)) "row 3 y"
    (3.0 *. tech.Celllib.Tech.row_height_um)
    (FP.row_y fp 3);
  (match FP.row_of_y fp (FP.row_y fp 7 +. 0.1) with
   | Some 7 -> ()
   | _ -> Alcotest.fail "row_of_y");
  Alcotest.(check bool) "row_of_y outside" true (FP.row_of_y fp (-1.0) = None)

let test_floorplan_from_utilization () =
  let fp = FP.create tech ~cell_area_um2:10000.0 ~utilization:0.8 ~aspect:1.0 in
  let util = FP.utilization_of fp ~cell_area_um2:10000.0 in
  if Float.abs (util -. 0.8) > 0.02 then
    Alcotest.failf "utilization %.3f too far from 0.8" util;
  let aspect = Geo.Rect.width fp.FP.core /. Geo.Rect.height fp.FP.core in
  if aspect < 0.9 || aspect > 1.1 then
    Alcotest.failf "aspect %.3f too far from 1.0" aspect

let test_floorplan_extra_rows () =
  let fp = FP.create_explicit tech ~num_rows:10 ~sites_per_row:50 in
  let fp' = FP.with_extra_rows fp 4 in
  Alcotest.(check int) "rows" 14 fp'.FP.num_rows;
  Alcotest.(check int) "sites unchanged" 50 fp'.FP.sites_per_row;
  Alcotest.(check (float 1e-9)) "width unchanged"
    (Geo.Rect.width fp.FP.core) (Geo.Rect.width fp'.FP.core)

let test_floorplan_validation () =
  (match FP.create tech ~cell_area_um2:100.0 ~utilization:1.5 ~aspect:1.0 with
   | _ -> Alcotest.fail "utilization > 1 accepted"
   | exception Invalid_argument _ -> ());
  (match FP.create_explicit tech ~num_rows:0 ~sites_per_row:10 with
   | _ -> Alcotest.fail "0 rows accepted"
   | exception Invalid_argument _ -> ())

(* --- regions --------------------------------------------------------------- *)

let test_regions_pack_disjoint_and_proportional () =
  let fp = FP.create_explicit tech ~num_rows:30 ~sites_per_row:300 in
  let areas = [| (0, 100.0); (1, 200.0); (2, 100.0); (3, 400.0) |] in
  let regions = Place.Regions.pack fp ~areas in
  Alcotest.(check int) "one region per unit" 4 (Array.length regions);
  (* disjoint *)
  Array.iteri
    (fun i a ->
       Array.iteri
         (fun j b ->
            if i < j
               && Geo.Rect.intersects a.Place.Regions.rect
                    b.Place.Regions.rect
            then Alcotest.failf "regions %d and %d overlap" i j)
         regions)
    regions;
  (* roughly proportional to areas *)
  let total_area = 800.0 in
  Array.iter
    (fun r ->
       let want =
         List.assoc r.Place.Regions.tag
           [ (0, 100.0); (1, 200.0); (2, 100.0); (3, 400.0) ]
         /. total_area
       in
       let got =
         Geo.Rect.area r.Place.Regions.rect /. FP.core_area_um2 fp
       in
       if Float.abs (got -. want) > 0.15 then
         Alcotest.failf "region %d share %.2f, expected %.2f"
           r.Place.Regions.tag got want)
    regions

let test_regions_capacity_covers () =
  let fp = FP.create_explicit tech ~num_rows:40 ~sites_per_row:400 in
  let areas = Array.init 9 (fun i -> (i, 100.0 +. float_of_int (i * 37))) in
  let regions = Place.Regions.pack fp ~areas in
  let total_cap =
    Array.fold_left
      (fun acc r -> acc + Place.Regions.capacity_sites r)
      0 regions
  in
  Alcotest.(check int) "regions tile the core"
    (fp.FP.num_rows * fp.FP.sites_per_row)
    total_cap

let test_regions_lookup () =
  let fp = FP.create_explicit tech ~num_rows:10 ~sites_per_row:100 in
  let regions = Place.Regions.pack fp ~areas:[| (7, 1.0) |] in
  Alcotest.(check int) "found" 7
    (Place.Regions.region_of_tag regions 7).Place.Regions.tag;
  (match Place.Regions.region_of_tag regions 3 with
   | _ -> Alcotest.fail "unknown tag found"
   | exception Not_found -> ());
  let whole = Place.Regions.whole_core fp in
  Alcotest.(check int) "whole core is one region" 1 (Array.length whole);
  Alcotest.(check int) "covers everything" 1000
    (Place.Regions.capacity_sites whole.(0))

(* --- partition -------------------------------------------------------------- *)

let chain_netlist n =
  (* inv chain: heavy locality, a perfect test for min-cut *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_input b in
  let prev = ref a in
  for _ = 1 to n do
    prev := Netlist.Builder.add_gate b Celllib.Kind.Inv [| !prev |]
  done;
  Netlist.Builder.mark_output b !prev;
  Netlist.Builder.finish b

let test_partition_chain_cut_is_one () =
  let nl = chain_netlist 64 in
  let cells = Array.init 64 (fun i -> i) in
  let areas = Array.make 64 1.0 in
  let r =
    Place.Partition.bipartition nl ~cells ~areas ~target_a:0.5 ~tolerance:2.0
  in
  (* a chain split at the area balance point cuts exactly one net *)
  Alcotest.(check int) "chain cut" 1 r.Place.Partition.cut_nets;
  if Float.abs (r.Place.Partition.area_a -. 32.0) > 2.0 then
    Alcotest.failf "balance off: %f" r.Place.Partition.area_a

let test_partition_balance_respected () =
  let nl = chain_netlist 100 in
  let cells = Array.init 100 (fun i -> i) in
  let areas = Array.init 100 (fun i -> 1.0 +. float_of_int (i mod 3)) in
  let total = Array.fold_left ( +. ) 0.0 areas in
  let r =
    Place.Partition.bipartition nl ~cells ~areas ~target_a:0.3
      ~tolerance:(0.05 *. total)
  in
  if Float.abs (r.Place.Partition.area_a -. (0.3 *. total)) > 0.06 *. total
  then Alcotest.failf "target 30%% missed: %f of %f"
      r.Place.Partition.area_a total

let test_partition_improves_shuffled_order () =
  (* shuffle the chain order so the prefix split is bad, then check FM
     recovers a much better cut than the initial one *)
  let nl = chain_netlist 64 in
  let cells = Array.init 64 (fun i -> i) in
  let rng = Geo.Rng.create 3 in
  Geo.Rng.shuffle rng cells;
  let areas = Array.make 64 1.0 in
  (* initial prefix cut of the shuffled order *)
  let side0 = Array.init 64 (fun i -> i >= 32) in
  let initial_cut =
    Place.Partition.cut_size nl
      ~cells ~side:side0
  in
  let r =
    Place.Partition.bipartition nl ~cells ~areas ~target_a:0.5 ~tolerance:2.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "FM cut %d < initial %d" r.Place.Partition.cut_nets
       initial_cut)
    true
    (r.Place.Partition.cut_nets < initial_cut)

let test_partition_empty () =
  let nl = chain_netlist 4 in
  let r =
    Place.Partition.bipartition nl ~cells:[||] ~areas:[||] ~target_a:0.5
      ~tolerance:1.0
  in
  Alcotest.(check int) "no cut" 0 r.Place.Partition.cut_nets

(* --- global + legalize ------------------------------------------------------ *)

let small_flow () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let areas =
    Array.map
      (fun u ->
         let tag = u.Netgen.Benchmark.tag in
         ( tag,
           List.fold_left
             (fun acc cid ->
                acc +. Celllib.Info.area_um2 tech (T.cell nl cid).T.kind)
             0.0 (T.cells_of_unit nl tag) ))
      bench.Netgen.Benchmark.units
  in
  let total = Array.fold_left (fun s (_, a) -> s +. a) 0.0 areas in
  let fp =
    FP.create tech ~cell_area_um2:total ~utilization:0.8 ~aspect:1.0
  in
  let regions = Place.Regions.pack fp ~areas in
  let cells tag = Array.of_list (T.cells_of_unit nl tag) in
  (nl, fp, regions, cells)

let test_global_positions_inside_regions () =
  let nl, _fp, regions, cells = small_flow () in
  let pos = Place.Global.place nl tech ~regions ~cells_of_region:cells in
  Array.iter
    (fun r ->
       Array.iter
         (fun cid ->
            let x, y = pos.(cid) in
            if Float.is_nan x then Alcotest.failf "cell %d unplaced" cid;
            if not (Geo.Rect.contains r.Place.Regions.rect ~x ~y) then
              Alcotest.failf "cell %d escaped its region" cid)
         (cells r.Place.Regions.tag))
    regions

let test_global_scaled () =
  let from_core = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:100.0 ~h:100.0 in
  let to_core = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:200.0 ~h:50.0 in
  let pos = [| (50.0, 50.0); (0.0, 0.0); (100.0, 100.0) |] in
  let s = Place.Global.scaled pos ~from_core ~to_core in
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "center maps to center"
    (100.0, 25.0) s.(0);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "origin fixed"
    (0.0, 0.0) s.(1);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "far corner"
    (200.0, 50.0) s.(2)

let legalized () =
  let nl, fp, regions, cells = small_flow () in
  let pos = Place.Global.place nl tech ~regions ~cells_of_region:cells in
  (nl, regions, cells,
   Place.Legalize.run nl fp ~regions ~cells_of_region:cells ~positions:pos)

let test_legalize_no_violations () =
  let _, _, _, pl = legalized () in
  let violations = P.validate pl in
  if violations <> [] then
    Alcotest.failf "%d violations, first: %s" (List.length violations)
      (Format.asprintf "%a" P.pp_violation (List.hd violations))

let test_legalize_cells_in_their_regions () =
  let _, regions, cells, pl = legalized () in
  Array.iter
    (fun r ->
       Array.iter
         (fun cid ->
            let l = pl.P.locs.(cid) in
            if l.P.row < r.Place.Regions.row_lo
               || l.P.row > r.Place.Regions.row_hi
               || l.P.site < r.Place.Regions.site_lo
               || l.P.site + P.width_sites pl cid
                  > r.Place.Regions.site_hi + 1
            then Alcotest.failf "cell %d outside region %d" cid
                r.Place.Regions.tag)
         (cells r.Place.Regions.tag))
    regions

let test_legalize_row_balance () =
  let _, regions, cells, pl = legalized () in
  (* rows inside one region should carry similar occupancy *)
  Array.iter
    (fun r ->
       let rows =
         Array.make (r.Place.Regions.row_hi - r.Place.Regions.row_lo + 1) 0
       in
       Array.iter
         (fun cid ->
            let l = pl.P.locs.(cid) in
            rows.(l.P.row - r.Place.Regions.row_lo) <-
              rows.(l.P.row - r.Place.Regions.row_lo)
              + P.width_sites pl cid)
         (cells r.Place.Regions.tag);
       let occ = Array.map float_of_int rows in
       let cap =
         float_of_int
           (r.Place.Regions.site_hi - r.Place.Regions.site_lo + 1)
       in
       let maxo = Geo.Stats.maximum occ /. cap in
       let mino = Geo.Stats.minimum occ /. cap in
       if maxo -. mino > 0.35 then
         Alcotest.failf "region %d rows unbalanced: %.2f..%.2f"
           r.Place.Regions.tag mino maxo)
    regions

let test_overflow_raises () =
  let nl, _, _, cells = small_flow () in
  (* a floorplan far too small for the design *)
  let fp = FP.create_explicit tech ~num_rows:2 ~sites_per_row:20 in
  let regions = Place.Regions.whole_core fp in
  let all_cells _ =
    Array.concat (List.map (fun t -> cells t) [ 0; 1; 2 ])
  in
  let pos = Array.make (T.num_cells nl) (1.0, 1.0) in
  (match
     Place.Legalize.run nl fp ~regions ~cells_of_region:all_cells
       ~positions:pos
   with
   | _ -> Alcotest.fail "overflow not detected"
   | exception Place.Legalize.Region_overflow _ -> ())

(* --- placement queries ------------------------------------------------------ *)

let test_hpwl_and_bbox () =
  let _, _, _, pl = legalized () in
  Alcotest.(check bool) "hpwl positive" true (P.hpwl pl > 0.0);
  (* per-net HPWL is consistent with the bbox *)
  let nl = pl.P.nl in
  for nid = 0 to T.num_nets nl - 1 do
    match P.net_bbox pl nid with
    | None ->
      Alcotest.(check (float 0.0))
        "no bbox -> zero length" 0.0 (P.net_hpwl pl nid)
    | Some r ->
      Alcotest.(check (float 1e-9))
        "hpwl = half perimeter"
        (Geo.Rect.width r +. Geo.Rect.height r)
        (P.net_hpwl pl nid)
  done

let test_validate_detects_overlap () =
  let _, _, _, pl = legalized () in
  let locs = Array.copy pl.P.locs in
  (* force cell 1 onto cell 0 *)
  locs.(1) <- locs.(0);
  let bad = P.make pl.P.nl pl.P.fp locs in
  Alcotest.(check bool) "overlap detected" true
    (List.exists
       (function P.Overlap _ -> true | P.Out_of_bounds _ -> false)
       (P.validate bad))

let test_validate_detects_out_of_bounds () =
  let _, _, _, pl = legalized () in
  let locs = Array.copy pl.P.locs in
  locs.(0) <- { P.row = 10000; site = 0 };
  let bad = P.make pl.P.nl pl.P.fp locs in
  Alcotest.(check bool) "oob detected" true
    (List.exists
       (function P.Out_of_bounds 0 -> true | _ -> false)
       (P.validate bad))

let test_utilization_reported () =
  let _, _, _, pl = legalized () in
  let u = P.utilization pl in
  if u < 0.7 || u > 0.9 then Alcotest.failf "utilization %.3f unexpected" u

(* --- fillers ----------------------------------------------------------------- *)

let test_fillers_tile_exactly () =
  let _, _, _, pl = legalized () in
  let fillers = Place.Filler.fill pl in
  Alcotest.(check bool) "covers all gaps" true
    (Place.Filler.covers_all_gaps pl fillers)

let test_fillers_do_not_overlap_cells () =
  let _, _, _, pl = legalized () in
  let fillers = Place.Filler.fill pl in
  let fp = pl.P.fp in
  (* occupancy bitmap: every site covered exactly once by cell or filler *)
  let occ = Array.make (fp.FP.num_rows * fp.FP.sites_per_row) 0 in
  let mark row site width =
    for s = site to site + width - 1 do
      let k = (row * fp.FP.sites_per_row) + s in
      occ.(k) <- occ.(k) + 1
    done
  in
  T.iter_cells pl.P.nl ~f:(fun cid _ ->
      let l = pl.P.locs.(cid) in
      mark l.P.row l.P.site (P.width_sites pl cid));
  List.iter
    (fun f ->
       match f.Place.Filler.f_kind with
       | Celllib.Kind.Filler w ->
         mark f.Place.Filler.f_row f.Place.Filler.f_site w
       | _ -> Alcotest.fail "non-filler kind in filler list")
    fillers;
  Array.iteri
    (fun k c ->
       if c <> 1 then
         Alcotest.failf "site %d covered %d times" k c)
    occ

(* --- exporters ------------------------------------------------------------- *)

let count_lines_with prefix s =
  String.split_on_char '\n' s
  |> List.filter (fun l ->
      String.length l >= String.length prefix
      && String.sub l 0 (String.length prefix) = prefix)
  |> List.length

let test_def_export () =
  let _, _, _, pl = legalized () in
  let fillers = Place.Filler.fill pl in
  let def = Place.Def_writer.to_string ~fillers pl in
  let n_cells = T.num_cells pl.P.nl in
  Alcotest.(check int) "one component line per cell"
    n_cells (count_lines_with "- u" def);
  Alcotest.(check int) "filler components"
    (List.length fillers) (count_lines_with "- fill" def);
  Alcotest.(check int) "row statements"
    pl.P.fp.FP.num_rows (count_lines_with "ROW " def);
  let declared = Printf.sprintf "COMPONENTS %d ;" (n_cells + List.length fillers) in
  Alcotest.(check int) "components header count" 1
    (count_lines_with declared def);
  Alcotest.(check int) "die area" 1 (count_lines_with "DIEAREA" def)

let test_svg_export () =
  let _, _, _, pl = legalized () in
  let svg = Place.Svg.to_string pl in
  Alcotest.(check bool) "starts with <svg" true
    (String.length svg > 4 && String.sub svg 0 4 = "<svg");
  Alcotest.(check bool) "closed" true
    (count_lines_with "</svg>" svg = 1);
  (* at least one rect per cell plus the die outline and rows *)
  Alcotest.(check bool) "enough rects" true
    (count_lines_with "<rect" svg
     > T.num_cells pl.P.nl)

let test_svg_overlay () =
  let _, _, _, pl = legalized () in
  let heat =
    Geo.Grid.of_function ~nx:4 ~ny:4 ~extent:pl.P.fp.FP.core
      ~f:(fun ~ix ~iy -> float_of_int (ix + iy))
  in
  let overlay =
    { Place.Svg.heat = Some heat;
      outlines = [ Geo.Rect.of_corner ~x:1.0 ~y:1.0 ~w:5.0 ~h:5.0 ] }
  in
  let svg = Place.Svg.to_string ~overlay pl in
  Alcotest.(check int) "dashed outline present" 1
    (count_lines_with "<rect" svg
     - count_lines_with "<rect" (Place.Svg.to_string ~overlay:{ overlay with Place.Svg.outlines = [] } pl))

let () =
  Alcotest.run "place"
    [ ("floorplan",
       [ Alcotest.test_case "explicit" `Quick test_floorplan_explicit;
         Alcotest.test_case "from utilization" `Quick
           test_floorplan_from_utilization;
         Alcotest.test_case "extra rows" `Quick test_floorplan_extra_rows;
         Alcotest.test_case "validation" `Quick test_floorplan_validation ]);
      ("regions",
       [ Alcotest.test_case "disjoint and proportional" `Quick
           test_regions_pack_disjoint_and_proportional;
         Alcotest.test_case "capacity covers core" `Quick
           test_regions_capacity_covers;
         Alcotest.test_case "lookup" `Quick test_regions_lookup ]);
      ("partition",
       [ Alcotest.test_case "chain cut is 1" `Quick
           test_partition_chain_cut_is_one;
         Alcotest.test_case "balance respected" `Quick
           test_partition_balance_respected;
         Alcotest.test_case "FM improves shuffled order" `Quick
           test_partition_improves_shuffled_order;
         Alcotest.test_case "empty subset" `Quick test_partition_empty ]);
      ("global",
       [ Alcotest.test_case "positions inside regions" `Quick
           test_global_positions_inside_regions;
         Alcotest.test_case "scaled remap" `Quick test_global_scaled ]);
      ("legalize",
       [ Alcotest.test_case "no violations" `Quick
           test_legalize_no_violations;
         Alcotest.test_case "cells in regions" `Quick
           test_legalize_cells_in_their_regions;
         Alcotest.test_case "row balance" `Quick test_legalize_row_balance;
         Alcotest.test_case "overflow raises" `Quick test_overflow_raises ]);
      ("placement",
       [ Alcotest.test_case "hpwl and bbox" `Quick test_hpwl_and_bbox;
         Alcotest.test_case "overlap detected" `Quick
           test_validate_detects_overlap;
         Alcotest.test_case "out of bounds detected" `Quick
           test_validate_detects_out_of_bounds;
         Alcotest.test_case "utilization" `Quick test_utilization_reported ]);
      ("filler",
       [ Alcotest.test_case "tiles exactly" `Quick test_fillers_tile_exactly;
         Alcotest.test_case "no overlap with cells" `Quick
           test_fillers_do_not_overlap_cells ]);
      ("export",
       [ Alcotest.test_case "def" `Quick test_def_export;
         Alcotest.test_case "svg" `Quick test_svg_export;
         Alcotest.test_case "svg overlay" `Quick test_svg_overlay ]) ]
