(* Tests for the paper's contribution: hotspot detection and the three
   whitespace-allocation techniques. *)

module P = Place.Placement
module FP = Place.Floorplan

let tech = Celllib.Tech.default_65nm

(* A small placed benchmark shared by the technique tests. *)
let flow =
  lazy
    (let bench = Netgen.Benchmark.small () in
     Postplace.Flow.prepare ~seed:11 ~sim_cycles:200
       bench (Logicsim.Workload.make ~default:0.05 ~hot:[ (0, 0.5) ]))

(* --- hotspot detection ------------------------------------------------------ *)

let crafted_thermal ~hot_tiles =
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:80.0 ~h:80.0 in
  let g = Geo.Grid.create ~nx:8 ~ny:8 ~extent in
  Geo.Grid.iteri g ~f:(fun ~ix ~iy _ -> Geo.Grid.set g ~ix ~iy 1.0);
  List.iter (fun (ix, iy) -> Geo.Grid.set g ~ix ~iy 10.0) hot_tiles;
  g

let any_placement () = (Lazy.force flow).Postplace.Flow.base_placement

let test_detect_single_cluster () =
  let g = crafted_thermal ~hot_tiles:[ (2, 2); (3, 2); (2, 3) ] in
  let hs =
    Postplace.Hotspot.detect ~thermal:g ~placement:(any_placement ())
      ~threshold_frac:0.8 ()
  in
  Alcotest.(check int) "one cluster" 1 (List.length hs);
  let h = List.hd hs in
  Alcotest.(check int) "three tiles" 3 (Postplace.Hotspot.tile_count h);
  Alcotest.(check (float 1e-9)) "peak" 10.0 h.Postplace.Hotspot.peak_rise_k;
  (* bounding rect covers tiles (2..3, 2..3) = 20..40 um in both axes *)
  Alcotest.(check (float 1e-6)) "rect lx" 20.0 h.Postplace.Hotspot.rect.Geo.Rect.lx;
  Alcotest.(check (float 1e-6)) "rect hx" 40.0 h.Postplace.Hotspot.rect.Geo.Rect.hx

let test_detect_two_clusters_sorted () =
  let g = crafted_thermal ~hot_tiles:[ (1, 1); (6, 6) ] in
  (* make the second cluster hotter *)
  Geo.Grid.set g ~ix:6 ~iy:6 20.0;
  let hs =
    Postplace.Hotspot.detect ~thermal:g ~placement:(any_placement ())
      ~threshold_frac:0.4 ()
  in
  Alcotest.(check int) "two clusters" 2 (List.length hs);
  (match hs with
   | first :: second :: _ ->
     Alcotest.(check bool) "sorted hottest first" true
       (first.Postplace.Hotspot.peak_rise_k
        > second.Postplace.Hotspot.peak_rise_k)
   | _ -> Alcotest.fail "unexpected")

let test_detect_diagonal_not_connected () =
  let g = crafted_thermal ~hot_tiles:[ (2, 2); (3, 3) ] in
  let hs =
    Postplace.Hotspot.detect ~thermal:g ~placement:(any_placement ())
      ~threshold_frac:0.8 ()
  in
  Alcotest.(check int) "diagonal tiles form two clusters" 2 (List.length hs)

let test_detect_threshold_validation () =
  let g = crafted_thermal ~hot_tiles:[ (0, 0) ] in
  (match
     Postplace.Hotspot.detect ~thermal:g ~placement:(any_placement ())
       ~threshold_frac:1.5 ()
   with
   | _ -> Alcotest.fail "threshold > 1 accepted"
   | exception Invalid_argument _ -> ())

let test_detect_flat_map_no_hotspots () =
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:80.0 ~h:80.0 in
  let g = Geo.Grid.create ~nx:8 ~ny:8 ~extent in
  let hs =
    Postplace.Hotspot.detect ~thermal:g ~placement:(any_placement ()) ()
  in
  Alcotest.(check int) "cold die" 0 (List.length hs)

let test_span_rows_and_wide () =
  let fl = Lazy.force flow in
  let fp = fl.Postplace.Flow.base_placement.P.fp in
  let h =
    { Postplace.Hotspot.rect =
        Geo.Rect.of_corner ~x:0.0
          ~y:(FP.row_y fp 2)
          ~w:(Geo.Rect.width fp.FP.core)
          ~h:(2.0 *. tech.Celllib.Tech.row_height_um);
      tiles = []; peak_rise_k = 1.0; cells = [] }
  in
  Alcotest.(check (pair int int)) "row span" (2, 3)
    (Postplace.Hotspot.span_rows fp h);
  Alcotest.(check bool) "full-width hotspot is wide" true
    (Postplace.Hotspot.is_wide fp h)

let test_spans_off_core_rect () =
  let fl = Lazy.force flow in
  let fp = fl.Postplace.Flow.base_placement.P.fp in
  let rh = tech.Celllib.Tech.row_height_um in
  let core = fp.FP.core in
  let mk ~y ~h =
    { Postplace.Hotspot.rect =
        Geo.Rect.of_corner ~x:core.Geo.Rect.lx ~y ~w:(Geo.Rect.width core)
          ~h;
      tiles = []; peak_rise_k = 1.0; cells = [] }
  in
  (* a rect fully below the core must yield an empty span, not (0, 0):
     int_of_float used to truncate the negative offset toward zero and
     claim the hotspot sat on the first row *)
  let below = mk ~y:(core.Geo.Rect.ly -. (2.0 *. rh)) ~h:(1.5 *. rh) in
  let lo, hi = Postplace.Hotspot.span_rows fp below in
  Alcotest.(check bool)
    (Printf.sprintf "off-core span (%d, %d) is empty" lo hi)
    true (lo > hi);
  (* straddling the bottom edge clamps to the first row *)
  let straddle = mk ~y:(core.Geo.Rect.ly -. rh) ~h:(1.5 *. rh) in
  Alcotest.(check (pair int int)) "straddling rect clamps" (0, 0)
    (Postplace.Hotspot.span_rows fp straddle);
  (* ERI driven only by an off-core hotspot inserts nothing instead of
     dumping the whole budget at row 0 *)
  let r =
    Postplace.Technique.empty_row_insertion
      fl.Postplace.Flow.base_placement ~hotspots:[ below ] ~rows:4
  in
  Alcotest.(check (list int)) "no rows inserted" []
    r.Postplace.Technique.inserted_after

(* --- ERI --------------------------------------------------------------------- *)

let base_eval =
  lazy
    (let fl = Lazy.force flow in
     Postplace.Flow.evaluate fl fl.Postplace.Flow.base_placement)

let test_eri_geometry () =
  let fl = Lazy.force flow in
  let ev = Lazy.force base_eval in
  let base = fl.Postplace.Flow.base_placement in
  let r = Postplace.Flow.apply_eri fl ~base:ev ~rows:4 in
  let pl = r.Postplace.Technique.eri_placement in
  Alcotest.(check int) "rows inserted" 4
    (List.length r.Postplace.Technique.inserted_after);
  Alcotest.(check int) "floorplan grew" (base.P.fp.FP.num_rows + 4)
    pl.P.fp.FP.num_rows;
  Alcotest.(check (float 1e-9)) "width unchanged"
    (Geo.Rect.width base.P.fp.FP.core)
    (Geo.Rect.width pl.P.fp.FP.core);
  Alcotest.(check int) "no placement violations" 0
    (List.length (P.validate pl))

let test_eri_inserted_rows_empty () =
  let fl = Lazy.force flow in
  let ev = Lazy.force base_eval in
  let r = Postplace.Flow.apply_eri fl ~base:ev ~rows:3 in
  let pl = r.Postplace.Technique.eri_placement in
  let members = P.row_members pl in
  (* the new empty rows sit right above each insertion point *)
  let after = List.sort compare r.Postplace.Technique.inserted_after in
  List.iteri
    (fun k a ->
       (* after shifting, the empty row index is a + (inserted below) + 1 *)
       let empty_row = a + k + 1 in
       Alcotest.(check (list int))
         (Printf.sprintf "row %d empty" empty_row)
         [] members.(empty_row))
    after

let test_eri_preserves_cell_sites () =
  let fl = Lazy.force flow in
  let ev = Lazy.force base_eval in
  let base = fl.Postplace.Flow.base_placement in
  let r = Postplace.Flow.apply_eri fl ~base:ev ~rows:5 in
  let pl = r.Postplace.Technique.eri_placement in
  Netlist.Types.iter_cells pl.P.nl ~f:(fun cid _ ->
      Alcotest.(check int) "site unchanged" base.P.locs.(cid).P.site
        pl.P.locs.(cid).P.site;
      Alcotest.(check bool) "row only moves up" true
        (pl.P.locs.(cid).P.row >= base.P.locs.(cid).P.row))

let test_eri_zero_rows_identity () =
  let fl = Lazy.force flow in
  let ev = Lazy.force base_eval in
  let r = Postplace.Flow.apply_eri fl ~base:ev ~rows:0 in
  Alcotest.(check (list int)) "no insertions" []
    r.Postplace.Technique.inserted_after;
  Alcotest.(check bool) "same placement" true
    (r.Postplace.Technique.eri_placement == fl.Postplace.Flow.base_placement)

let test_eri_rejects_negative () =
  let fl = Lazy.force flow in
  let ev = Lazy.force base_eval in
  (match Postplace.Flow.apply_eri fl ~base:ev ~rows:(-1) with
   | _ -> Alcotest.fail "negative rows accepted"
   | exception Invalid_argument _ -> ())

let test_eri_overhead_matches_rows () =
  let fl = Lazy.force flow in
  let ev = Lazy.force base_eval in
  let base = fl.Postplace.Flow.base_placement in
  let rows = 6 in
  let r = Postplace.Flow.apply_eri fl ~base:ev ~rows in
  let want =
    100.0 *. float_of_int rows /. float_of_int base.P.fp.FP.num_rows
  in
  let got =
    Postplace.Technique.area_overhead_pct ~base
      r.Postplace.Technique.eri_placement
  in
  if Float.abs (got -. want) > 0.5 then
    Alcotest.failf "overhead %.2f%% != rows/base %.2f%%" got want

(* --- Default (uniform slack) -------------------------------------------------- *)

let test_default_utilization_and_legality () =
  let fl = Lazy.force flow in
  let pl = Postplace.Flow.apply_default fl ~utilization:0.6 in
  let u = P.utilization pl in
  if Float.abs (u -. 0.6) > 0.05 then
    Alcotest.failf "utilization %.3f != 0.6" u;
  Alcotest.(check int) "legal" 0 (List.length (P.validate pl))

let test_default_overhead_scaling () =
  let fl = Lazy.force flow in
  let base = fl.Postplace.Flow.base_placement in
  let u0 = fl.Postplace.Flow.base_utilization in
  let pl = Postplace.Flow.apply_default fl ~utilization:(u0 /. 1.25) in
  let overhead = Postplace.Technique.area_overhead_pct ~base pl in
  (* relaxing utilization by 25% grows the core by ~25% *)
  if Float.abs (overhead -. 25.0) > 4.0 then
    Alcotest.failf "overhead %.1f%% != ~25%%" overhead

(* --- HW ------------------------------------------------------------------------ *)

(* a compact hotspot: detect at a high threshold so the cluster is small
   enough for the wrapper to be feasible on the tiny test die *)
let compact_hotspot ev pl =
  Postplace.Hotspot.detect ~thermal:ev.Postplace.Flow.thermal_map
    ~placement:pl ~threshold_frac:0.95 ()

let test_hw_legality_and_hot_cells_inside () =
  let fl = Lazy.force flow in
  let pl = Postplace.Flow.apply_default fl ~utilization:0.6 in
  let ev = Postplace.Flow.evaluate fl pl in
  (match compact_hotspot ev pl with
   | [] -> Alcotest.fail "no hotspot detected on default placement"
   | h :: _ ->
     let pl' =
       Postplace.Technique.hotspot_wrapper pl ~hotspots:[ h ]
         ~max_hotspot_tiles:10000 ()
     in
     Alcotest.(check int) "legal after wrapper" 0
       (List.length (P.validate pl'));
     (* hot cells now sit inside the (inflated) hotspot rect *)
     let wrapper =
       Geo.Rect.inflate h.Postplace.Hotspot.rect
         (2.0 *. tech.Celllib.Tech.row_height_um)
     in
     List.iter
       (fun cid ->
          let x, y = P.cell_center pl' cid in
          if not (Geo.Rect.contains wrapper ~x ~y) then
            Alcotest.failf "hot cell %d escaped the wrapper" cid)
       h.Postplace.Hotspot.cells)

let test_hw_skips_large_hotspots () =
  let fl = Lazy.force flow in
  let pl = Postplace.Flow.apply_default fl ~utilization:0.6 in
  let ev = Postplace.Flow.evaluate fl pl in
  (match ev.Postplace.Flow.hotspots with
   | [] -> Alcotest.fail "no hotspot"
   | h :: _ ->
     let pl' =
       Postplace.Technique.hotspot_wrapper pl ~hotspots:[ h ]
         ~max_hotspot_tiles:0 ()
     in
     (* nothing moved *)
     Alcotest.(check bool) "identity when all hotspots too large" true
       (pl'.P.locs = pl.P.locs))

let test_hw_reduces_local_density () =
  let fl = Lazy.force flow in
  let pl = Postplace.Flow.apply_default fl ~utilization:0.6 in
  let ev = Postplace.Flow.evaluate fl pl in
  (match compact_hotspot ev pl with
   | [] -> Alcotest.fail "no hotspot"
   | h :: _ ->
     let pl' =
       Postplace.Technique.hotspot_wrapper pl ~hotspots:[ h ]
         ~max_hotspot_tiles:10000 ()
     in
     let density p =
       let rect = h.Postplace.Hotspot.rect in
       Netlist.Types.fold_cells p.P.nl ~init:0.0 ~f:(fun acc cid _ ->
           acc +. Geo.Rect.overlap_area rect (P.cell_rect p cid))
     in
     let before = density pl and after = density pl' in
     Alcotest.(check bool)
       (Printf.sprintf "cell area in hotspot %.0f -> %.0f" before after)
       true (after <= before))

let test_wrapper_risk_assessment () =
  let fl = Lazy.force flow in
  let pl = Postplace.Flow.apply_default fl ~utilization:0.6 in
  let ev = Postplace.Flow.evaluate fl pl in
  (match compact_hotspot ev pl with
   | [] -> Alcotest.fail "no hotspot"
   | h :: _ ->
     let risk =
       Postplace.Technique.assess_wrapper pl
         ~per_cell_w:fl.Postplace.Flow.per_cell_w ~hotspot:h ~margin_um:4.0
     in
     Alcotest.(check bool) "densities non-negative" true
       (risk.Postplace.Technique.hotspot_density_w_um2 >= 0.0
        && risk.Postplace.Technique.flank_density_before_w_um2 >= 0.0);
     Alcotest.(check bool) "eviction can only raise flank density" true
       (risk.Postplace.Technique.flank_density_after_w_um2
        >= risk.Postplace.Technique.flank_density_before_w_um2 -. 1e-12);
     (* a real hotspot is denser than its surroundings *)
     Alcotest.(check bool) "hotspot denser than flanks" true
       (risk.Postplace.Technique.hotspot_density_w_um2
        > risk.Postplace.Technique.flank_density_before_w_um2))

let test_wrapper_skip_risky_is_safe () =
  let fl = Lazy.force flow in
  let pl = Postplace.Flow.apply_default fl ~utilization:0.6 in
  let ev = Postplace.Flow.evaluate fl pl in
  let hs =
    match compact_hotspot ev pl with [] -> [] | h :: _ -> [ h ]
  in
  let pl' =
    Postplace.Technique.hotspot_wrapper pl ~hotspots:hs
      ~max_hotspot_tiles:10000
      ~skip_risky:fl.Postplace.Flow.per_cell_w ()
  in
  Alcotest.(check int) "legal with risk filter" 0
    (List.length (P.validate pl'))

(* --- area accounting ------------------------------------------------------------ *)

let test_area_overhead_pct () =
  let fl = Lazy.force flow in
  let base = fl.Postplace.Flow.base_placement in
  Alcotest.(check (float 1e-9)) "self overhead zero" 0.0
    (Postplace.Technique.area_overhead_pct ~base base)

(* --- flow ------------------------------------------------------------------------ *)

let test_flow_evaluation_sane () =
  let ev = Lazy.force base_eval in
  Alcotest.(check bool) "positive peak" true
    (ev.Postplace.Flow.metrics.Thermal.Metrics.peak_rise_k > 0.0);
  Alcotest.(check bool) "positive critical path" true
    (ev.Postplace.Flow.timing.Sta.Timing.critical_ps > 0.0);
  Alcotest.(check bool) "power map not empty" true
    (Geo.Grid.total ev.Postplace.Flow.power_map > 0.0);
  Alcotest.(check bool) "thermal map matches metrics" true
    (Geo.Grid.max_value ev.Postplace.Flow.thermal_map
     = ev.Postplace.Flow.metrics.Thermal.Metrics.peak_rise_k)

let test_flow_deterministic () =
  let bench = Netgen.Benchmark.small () in
  let w = Logicsim.Workload.make ~default:0.05 ~hot:[ (0, 0.5) ] in
  let f1 = Postplace.Flow.prepare ~seed:21 ~sim_cycles:100 bench w in
  let f2 = Postplace.Flow.prepare ~seed:21 ~sim_cycles:100 bench w in
  let e1 = Postplace.Flow.evaluate f1 f1.Postplace.Flow.base_placement in
  let e2 = Postplace.Flow.evaluate f2 f2.Postplace.Flow.base_placement in
  Alcotest.(check (float 1e-12)) "same seed, same peak"
    e1.Postplace.Flow.metrics.Thermal.Metrics.peak_rise_k
    e2.Postplace.Flow.metrics.Thermal.Metrics.peak_rise_k

let test_flow_seed_changes_activity () =
  let bench = Netgen.Benchmark.small () in
  let w = Logicsim.Workload.make ~default:0.05 ~hot:[ (0, 0.5) ] in
  let f1 = Postplace.Flow.prepare ~seed:1 ~sim_cycles:100 bench w in
  let f2 = Postplace.Flow.prepare ~seed:2 ~sim_cycles:100 bench w in
  Alcotest.(check bool) "different seeds, different activity" true
    (f1.Postplace.Flow.activity.Logicsim.Activity.toggle_rate
     <> f2.Postplace.Flow.activity.Logicsim.Activity.toggle_rate)

(* Global placement, legalization and the Default and power-aware
   re-placements draw no random numbers. The digests pin their output bit
   for bit (floats are marshalled by their bits, without sharing). *)
let test_flow_placement_digests_pinned () =
  let fl = Lazy.force flow in
  let digest v =
    Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
  in
  List.iter
    (fun (name, expected, got) -> Alcotest.(check string) name expected got)
    [ ("global positions", "38a71b5bf2e5f551586fe9d75880dd66",
       digest fl.Postplace.Flow.positions);
      ("base placement", "e98d7f6b7b25c7a525beec1834b016f0",
       digest fl.Postplace.Flow.base_placement.P.locs);
      ("default at 0.60", "369037b9e0cf6f62ba79a860ddd3f973",
       digest (Postplace.Flow.apply_default fl ~utilization:0.60).P.locs);
      ("power-aware at 0.60", "4c8648b4917449875af3a5fe77df7673",
       digest (Postplace.Flow.apply_power_aware fl ~utilization:0.60).P.locs) ]

(* --- row-insertion primitive ------------------------------------------------ *)

let test_apply_row_insertions_mapping () =
  let fl = Lazy.force flow in
  let base = fl.Postplace.Flow.base_placement in
  let r = Postplace.Technique.apply_row_insertions base [ 1; 1; 3 ] in
  let pl = r.Postplace.Technique.eri_placement in
  Alcotest.(check int) "three more rows" (base.P.fp.FP.num_rows + 3)
    pl.P.fp.FP.num_rows;
  (* rows <=1 stay; rows 2..3 shift by 2; rows >3 shift by 3 *)
  Netlist.Types.iter_cells pl.P.nl ~f:(fun cid _ ->
      let old_row = base.P.locs.(cid).P.row in
      let expected =
        if old_row <= 1 then old_row
        else if old_row <= 3 then old_row + 2
        else old_row + 3
      in
      Alcotest.(check int) "shift" expected pl.P.locs.(cid).P.row);
  Alcotest.(check int) "legal" 0 (List.length (P.validate pl))

let test_shifted_rows () =
  (* row r moves up by the number of listed rows below it: -1 shifts every
     row, the pair of 1s rows 2 and up, and 4 and 7 none of 5 rows *)
  Alcotest.(check (array int)) "row table" [| 1; 2; 5; 6; 7 |]
    (Postplace.Technique.shifted_rows ~num_rows:5 [ 4; -1; 1; 7; 1 ]);
  Alcotest.(check (array int)) "empty plan" [| 0; 1; 2 |]
    (Postplace.Technique.shifted_rows ~num_rows:3 [])

let test_clustered_style_contiguous () =
  let ev = Lazy.force base_eval in
  let r =
    Postplace.Technique.empty_row_insertion ~style:`Clustered
      ev.Postplace.Flow.placement ~hotspots:ev.Postplace.Flow.hotspots
      ~rows:4
  in
  (* all four insertions land at the same spot *)
  (match List.sort_uniq compare r.Postplace.Technique.inserted_after with
   | [ _ ] -> ()
   | other ->
     Alcotest.failf "expected one clustered position, got %d"
       (List.length other));
  Alcotest.(check int) "legal" 0
    (List.length (P.validate r.Postplace.Technique.eri_placement))

(* --- row profiles --------------------------------------------------------------- *)

(* The small design at a lower utilization than [flow]: shorter rows with
   more whitespace, so both flows' rows end in different x-tiles. *)
let sparse_flow =
  lazy
    (let bench = Netgen.Benchmark.small () in
     Postplace.Flow.prepare ~seed:11 ~sim_cycles:200 ~utilization:0.6
       bench (Logicsim.Workload.make ~default:0.05 ~hot:[ (0, 0.5) ]))

(* Test set 1 ("scattered"), 12k cells: activity barely matters here. *)
let scattered = lazy (Postplace.Experiment.test_set_1 ~sim_cycles:50 ())

(* A trial's map as the optimizer prices it: the base rows' profile
   spread over the rows the plan shifts them to. *)
let trial_map fl profile after ~ny =
  let fp = fl.Postplace.Flow.base_placement.P.fp in
  Power.Map.of_row_profile profile
    ~fp:(FP.with_extra_rows fp (List.length after))
    ~rows:(Postplace.Technique.shifted_rows ~num_rows:fp.FP.num_rows after)
    ~ny

let prop_row_profile_matches_power_map =
  (* plan entries: -1 stands for the top row, any other value for that
     row modulo the row count; 0 and -1 are drawn often, and 0-12 entries
     over ~10 rows repeat rows *)
  let entry =
    QCheck.Gen.(frequency
                  [ (1, return 0); (1, return (-1)); (4, int_bound 999) ])
  in
  let gen =
    QCheck.Gen.(quad bool (int_range 1 40) (int_range 1 40)
                  (list_size (int_range 0 12) entry))
  in
  let print = QCheck.Print.(quad bool int int (list int)) in
  QCheck.Test.make ~name:"row-profile map matches re-placed power_map"
    ~count:300 (QCheck.make ~print gen)
    (fun (sparse, nx, ny, entries) ->
       let fl = Lazy.force (if sparse then sparse_flow else flow) in
       let base = fl.Postplace.Flow.base_placement in
       let per_cell_w = fl.Postplace.Flow.per_cell_w in
       let num_rows = base.P.fp.FP.num_rows in
       let after =
         List.map (fun e -> if e < 0 then num_rows - 1 else e mod num_rows)
           entries
       in
       let oracle =
         Power.Map.power_map
           (Postplace.Technique.apply_row_insertions base after)
             .Postplace.Technique.eri_placement
           ~per_cell_w ~nx ~ny
       in
       let got =
         trial_map fl (Power.Map.row_profile base ~per_cell_w ~nx) after ~ny
       in
       let tol = 1e-12 *. Geo.Grid.total oracle in
       Geo.Grid.extent got = Geo.Grid.extent oracle
       && Geo.Grid.nx got = nx && Geo.Grid.ny got = ny
       && Geo.Grid.fold
            (Geo.Grid.map2 got oracle ~f:(fun a b -> Float.abs (a -. b)))
            ~init:true ~f:(fun ok d -> ok && d <= tol))

(* Pricing a trial reads the row profile only: it allocates its nx x ny
   map and a row table, never anything per cell, so the 12k-cell design
   costs what the 244-cell one does. The median of five warm calls, as in
   blur's allocation test. *)
let test_trial_pricing_allocation () =
  let n = 20 in
  List.iter
    (fun (name, fl) ->
       let base = fl.Postplace.Flow.base_placement in
       let num_rows = base.P.fp.FP.num_rows in
       let profile =
         Power.Map.row_profile base ~per_cell_w:fl.Postplace.Flow.per_cell_w
           ~nx:n
       in
       let after = [ 0; num_rows / 2; num_rows / 2; num_rows - 1 ] in
       let price () = ignore (trial_map fl profile after ~ny:n : Geo.Grid.t) in
       price ();
       let words () =
         let minor, promoted, major = Gc.counters () in
         minor +. major -. promoted
       in
       let call () =
         let w0 = words () in
         price ();
         words () -. w0
       in
       let w = List.nth (List.sort compare (List.init 5 (fun _ -> call ()))) 2 in
       let budget = float_of_int ((4 * n * n) + (4 * num_rows)) in
       if w > budget then
         Alcotest.failf "%s (%d cells, %d rows): a trial allocates %.0f words \
                         (> %.0f)"
           name (Netlist.Types.num_cells base.P.nl) num_rows w budget)
    [ ("small", Lazy.force flow); ("scattered", Lazy.force scattered) ]

(* --- electrothermal ------------------------------------------------------------- *)

let test_electrothermal_feedback () =
  let fl = Lazy.force flow in
  let r =
    Postplace.Electrothermal.evaluate fl fl.Postplace.Flow.base_placement ()
  in
  Alcotest.(check bool) "converged" true r.Postplace.Electrothermal.converged;
  Alcotest.(check bool) "feedback raises the peak" true
    (r.Postplace.Electrothermal.metrics.Thermal.Metrics.peak_rise_k
     >= r.Postplace.Electrothermal.open_loop_peak_k);
  Alcotest.(check bool) "leakage grows with temperature" true
    (r.Postplace.Electrothermal.leakage_w
     > r.Postplace.Electrothermal.nominal_leakage_w)

let test_leakage_scaling_formula () =
  let tech = Celllib.Tech.default_65nm in
  let nominal = 1.0e-6 in
  Alcotest.(check (float 1e-15)) "no rise, nominal" nominal
    (Power.Model.leakage_at_rise tech ~nominal_w:nominal ~rise_k:0.0);
  Alcotest.(check (float 1e-12)) "doubling point"
    (2.0 *. nominal)
    (Power.Model.leakage_at_rise tech ~nominal_w:nominal
       ~rise_k:tech.Celllib.Tech.leakage_doubling_k)

(* --- optimizer -------------------------------------------------------------------- *)

let test_optimizer_budget_and_legality () =
  let fl = Lazy.force flow in
  let r = Postplace.Optimizer.greedy_rows fl ~rows:3 ~chunk:2 ~stride:3 () in
  Alcotest.(check int) "budget respected" 3
    (List.length r.Postplace.Optimizer.plan.Postplace.Technique.inserted_after);
  Alcotest.(check int) "legal" 0
    (List.length
       (P.validate
          r.Postplace.Optimizer.plan.Postplace.Technique.eri_placement));
  Alcotest.(check bool) "did some evaluations" true
    (r.Postplace.Optimizer.evaluations > 0)

let test_optimizer_reduces_peak () =
  let fl = Lazy.force flow in
  let base_peak =
    Postplace.Optimizer.evaluate_plan fl ~after:[] ~nx:16
  in
  let r = Postplace.Optimizer.greedy_rows fl ~rows:3 ~coarse_nx:16 () in
  Alcotest.(check bool) "optimizer lowers the coarse peak" true
    (r.Postplace.Optimizer.predicted_peak_k < base_peak)

let test_optimizer_validation () =
  let fl = Lazy.force flow in
  (match Postplace.Optimizer.greedy_rows fl ~rows:0 () with
   | _ -> Alcotest.fail "rows=0 accepted"
   | exception Invalid_argument _ -> ())

let cg_solves () =
  Option.value ~default:0 (Obs.Metrics.counter_value "thermal.cg.solves")

let modal_solves () =
  Option.value ~default:0 (Obs.Metrics.counter_value "thermal.modal.solves")

(* The reference greedy: every candidate of every round priced by a cold
   full-tolerance solve of its cell-by-cell binned placement
   ({!Postplace.Optimizer.evaluate_plan}, no blur, no row profile, no
   warm start), strict improvement wins and the first candidate wins
   ties. Returns the committed insertions, as [greedy_rows] reports them,
   and the plan's peak. It spends rounds x candidates solves. *)
let reference_greedy fl ~rows ~chunk ~stride ~nx =
  let base = fl.Postplace.Flow.base_placement in
  let num_rows = base.P.fp.FP.num_rows in
  let candidates =
    List.init ((num_rows + stride - 1) / stride) (fun i -> i * stride)
  in
  let rec go plan remaining =
    if remaining = 0 then plan
    else begin
      let step = min chunk remaining in
      let trial c = plan @ List.init step (fun _ -> c) in
      let best =
        List.fold_left
          (fun best c ->
             let peak =
               Postplace.Optimizer.evaluate_plan fl ~after:(trial c) ~nx
             in
             match best with
             | Some (_, best_peak) when best_peak <= peak -> best
             | _ -> Some (c, peak))
          None candidates
      in
      go (trial (fst (Option.get best))) (remaining - step)
    end
  in
  let plan = go [] rows in
  ( (Postplace.Technique.apply_row_insertions base plan)
      .Postplace.Technique.inserted_after,
    Postplace.Optimizer.evaluate_plan fl ~after:plan ~nx )

let inserted (r : Postplace.Optimizer.result) =
  r.Postplace.Optimizer.plan.Postplace.Technique.inserted_after

(* rounds x candidates for [rows] in chunks of [chunk] over every
   [stride]-th row of the small flow *)
let priced fl ~rows ~chunk ~stride =
  let num_rows = fl.Postplace.Flow.base_placement.P.fp.FP.num_rows in
  ((rows + chunk - 1) / chunk) * ((num_rows + stride - 1) / stride)

let test_optimizer_fft_screening_parity () =
  let fl = Lazy.force flow in
  Parallel.Pool.set_jobs 1;
  let cg0 = cg_solves () and modal0 = modal_solves () in
  let r =
    Postplace.Optimizer.greedy_rows fl ~rows:4 ~chunk:2 ~stride:2
      ~coarse_nx:16 ()
  in
  let cg = cg_solves () - cg0 and modal = modal_solves () - modal0 in
  let plan, peak = reference_greedy fl ~rows:4 ~chunk:2 ~stride:2 ~nx:16 in
  Alcotest.(check (list int)) "blur tier picks the reference greedy's plan"
    plan (inserted r);
  Alcotest.(check (float (1e-12 *. peak))) "reference greedy's peak" peak
    r.Postplace.Optimizer.predicted_peak_k;
  (* 4 rows in chunks of 2 is 2 rounds over every 2nd row *)
  Alcotest.(check int) "blur tier blurs every candidate"
    (priced fl ~rows:4 ~chunk:2 ~stride:2)
    r.Postplace.Optimizer.blur_evaluations;
  Alcotest.(check int) "blur tier solves only the re-score" 1
    r.Postplace.Optimizer.evaluations;
  (* that solve is modal, not CG *)
  Alcotest.(check (pair int int)) "blur tier runs one modal solve, no CG"
    (1, 0) (modal, cg)

(* The blur builds no problem and runs no solve, so no armed fault can
   be blurred away and the optimizer routes none: on the 20x20 greedy
   each fault reaches its own target under the blur tier. A [Cg_stall]
   stalls the re-score's CG attempt and the cold retry
   recovers it; [Nan_power] aims at the flow's power map, which
   greedy_rows never bins, so the run is the clean one bit for bit;
   [Perturb_matrix] poisons the re-score's build, which both attempts
   reject; [Kill_worker] fails a chunk of the candidate map. *)
let test_optimizer_faults_reach_targets () =
  let fl = Lazy.force flow in
  Parallel.Pool.set_jobs 1;
  Obs.Metrics.set_enabled true;
  let run () = Postplace.Optimizer.greedy_rows fl ~rows:2 ~chunk:2 ~stride:2 () in
  let clean = run () in
  let recovered () =
    Option.value ~default:0
      (Obs.Metrics.counter_value "thermal.cg.escalation.recovered")
  in
  let bits (r : Postplace.Optimizer.result) =
    ( inserted r,
      Int64.bits_of_float r.Postplace.Optimizer.predicted_peak_k,
      r.Postplace.Optimizer.evaluations,
      r.Postplace.Optimizer.blur_evaluations )
  in
  let peak = clean.Postplace.Optimizer.predicted_peak_k in
  List.iter
    (fun (fault, expect) ->
       let name = Robust.Faults.to_string fault in
       let recovered0 = recovered () in
       let outcome =
         match Robust.Faults.with_fault fault run with
         | r -> Ok r
         | exception Robust.Error.Error e -> Error e
       in
       match (expect, outcome) with
       | `Recovered, Ok r ->
         Alcotest.(check (list int)) (name ^ ": clean plan") (inserted clean)
           (inserted r);
         Alcotest.(check (float (1e-9 *. peak))) (name ^ ": re-scored peak")
           peak r.Postplace.Optimizer.predicted_peak_k;
         Alcotest.(check int) (name ^ ": blurs every candidate")
           (priced fl ~rows:2 ~chunk:2 ~stride:2)
           r.Postplace.Optimizer.blur_evaluations;
         Alcotest.(check int) (name ^ ": one re-score solve") 1
           r.Postplace.Optimizer.evaluations;
         Alcotest.(check int) (name ^ ": one recovery") 1
           (recovered () - recovered0)
       | `Clean, Ok r ->
         Alcotest.(check bool) (name ^ ": the clean run bit for bit") true
           (bits r = bits clean)
       | `Diverged, Error (Robust.Error.Solver_diverged { rungs; _ }) ->
         Alcotest.(check (list string)) (name ^ ": attempt and retry")
           [ "requested"; "restart" ] rungs
       | `Worker, Error (Robust.Error.Worker_failed _) -> ()
       | _, Ok _ -> Alcotest.failf "%s: unexpected success" name
       | _, Error e ->
         Alcotest.failf "%s: unexpected %s" name (Robust.Error.to_string e))
    Robust.Faults.
      [ (Cg_stall, `Recovered); (Nan_power, `Clean);
        (Perturb_matrix, `Diverged); (Kill_worker, `Worker) ]

(* The plans greedy_rows commits at the default 20x20 grid under each
   guide, and the reference greedy's, recorded with cell-by-cell trial
   maps (power_map of apply_row_insertions). Row-profile maps must commit
   the same plans; the predicted peaks may differ only by rounding. *)
let test_optimizer_plans_pinned () =
  let fl = Lazy.force flow in
  Parallel.Pool.set_jobs 1;
  let greedy guide () =
    let r =
      Postplace.Optimizer.greedy_rows fl ~rows:6 ~guide ~chunk:2 ~stride:1 ()
    in
    (inserted r, r.Postplace.Optimizer.predicted_peak_k)
  in
  List.iter
    (fun (name, run, plan, peak) ->
       let got_plan, got_peak = run () in
       Alcotest.(check (list int)) (name ^ " plan") plan got_plan;
       Alcotest.(check (float (1e-9 *. peak))) (name ^ " predicted peak") peak
         got_peak)
    [ ("fft", greedy Postplace.Flow.Guide_peak,
       [ 0; 0; 1; 1; 2; 2 ], 0x1.b8583f4e86b75p-1);
      ("exact",
       (fun () -> reference_greedy fl ~rows:6 ~chunk:2 ~stride:1 ~nx:20),
       [ 0; 0; 1; 1; 2; 2 ], 0x1.b8583f4e86b75p-1);
      ("gradient", greedy Postplace.Flow.Guide_gradient,
       [ 0; 0; 0; 1; 1; 1 ], 0x1.b90088ad96d0cp-1) ]

(* --- gradient guide ----------------------------------------------------------------- *)

let test_flow_sensitivity_smoke () =
  let fl = Lazy.force flow in
  let adj =
    Postplace.Flow.sensitivity fl fl.Postplace.Flow.base_placement
  in
  let peak = Geo.Grid.max_value adj.Thermal.Adjoint.sensitivity in
  Alcotest.(check bool) "positive peak sensitivity" true (peak > 0.0);
  (* log-sum-exp upper-bounds the hard max *)
  Alcotest.(check bool) "smoothed peak at or above hard peak" true
    (adj.Thermal.Adjoint.smoothed_peak_k
     >= adj.Thermal.Adjoint.peak_rise_k -. 1e-9)

(* The guide is an optimizer argument, not part of the prepared problem:
   the fingerprint of the flow's configuration names the problem alone. *)
let test_guide_not_in_fingerprint () =
  let fl = Lazy.force flow in
  Alcotest.(check string) "problem identity only"
    "mesh=40x40x9|precond=mg|seed=11|util=0.85"
    (Postplace.Flow.config_fingerprint
       ~mesh_config:fl.Postplace.Flow.mesh_config ~seed:fl.Postplace.Flow.seed
       ~utilization:fl.Postplace.Flow.base_utilization ())

let test_gradient_guide_matches_peak_quality () =
  let fl = Lazy.force flow in
  Parallel.Pool.set_jobs 1;
  let run guide =
    Postplace.Optimizer.greedy_rows fl ~rows:3 ~guide ~chunk:2 ~stride:2
      ~coarse_nx:16 ()
  in
  let peak = run Postplace.Flow.Guide_peak in
  let grad = run Postplace.Flow.Guide_gradient in
  (* the gradient guide must land within a small tolerance of the
     blur-priced greedy peak while spending fewer exact solves than the
     reference greedy's one per candidate *)
  Alcotest.(check bool)
    (Printf.sprintf "gradient peak %.4f K within 0.05 K of greedy %.4f K"
       grad.Postplace.Optimizer.predicted_peak_k
       peak.Postplace.Optimizer.predicted_peak_k)
    true
    (grad.Postplace.Optimizer.predicted_peak_k
     <= peak.Postplace.Optimizer.predicted_peak_k +. 0.05);
  Alcotest.(check int) "budget respected" 3
    (List.length
       grad.Postplace.Optimizer.plan.Postplace.Technique.inserted_after);
  Alcotest.(check int) "legal" 0
    (List.length
       (P.validate
          grad.Postplace.Optimizer.plan.Postplace.Technique.eri_placement));
  Alcotest.(check bool) "gradient mode spends fewer exact solves" true
    (grad.Postplace.Optimizer.evaluations
     < priced fl ~rows:3 ~chunk:2 ~stride:2);
  Alcotest.(check bool) "gradient mode ran adjoint solves" true
    (grad.Postplace.Optimizer.adjoint_evaluations > 0);
  Alcotest.(check int) "peak mode runs no adjoints" 0
    peak.Postplace.Optimizer.adjoint_evaluations

let test_gradient_guide_parallel_identical () =
  let fl = Lazy.force flow in
  let run () =
    Postplace.Optimizer.greedy_rows fl ~rows:3
      ~guide:Postplace.Flow.Guide_gradient ~chunk:2 ~stride:3 ~coarse_nx:16 ()
  in
  Parallel.Pool.set_jobs 1;
  let seq = run () in
  let par =
    Parallel.Pool.set_jobs 4;
    Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs 1) run
  in
  Alcotest.(check (list int)) "same plan"
    seq.Postplace.Optimizer.plan.Postplace.Technique.inserted_after
    par.Postplace.Optimizer.plan.Postplace.Technique.inserted_after;
  Alcotest.(check bool) "same predicted peak" true
    (seq.Postplace.Optimizer.predicted_peak_k
     = par.Postplace.Optimizer.predicted_peak_k)

(* --- parallel determinism --------------------------------------------------------- *)

let with_jobs n f =
  Parallel.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs 1) f

let test_optimizer_parallel_identical () =
  let fl = Lazy.force flow in
  let run () =
    Postplace.Optimizer.greedy_rows fl ~rows:3 ~chunk:2 ~stride:3
      ~coarse_nx:16 ()
  in
  Parallel.Pool.set_jobs 1;
  let seq = run () in
  let par = with_jobs 4 run in
  Alcotest.(check (list int)) "same plan"
    seq.Postplace.Optimizer.plan.Postplace.Technique.inserted_after
    par.Postplace.Optimizer.plan.Postplace.Technique.inserted_after;
  (* bit-identical, not approximately equal *)
  Alcotest.(check bool) "same predicted peak" true
    (seq.Postplace.Optimizer.predicted_peak_k
     = par.Postplace.Optimizer.predicted_peak_k);
  Alcotest.(check int) "same evaluation count"
    seq.Postplace.Optimizer.evaluations par.Postplace.Optimizer.evaluations

let test_fig6_parallel_identical () =
  let module F = Postplace.Flow in
  let fl = Lazy.force flow in
  let overheads = [ 0.1; 0.2 ] in
  Parallel.Pool.set_jobs 1;
  let solves0 = modal_solves () in
  let seq = Postplace.Experiment.run_fig6 ~overheads fl in
  (* one evaluation per point plus the base: 3 schemes x 2 overheads + 1,
     each a modal solve on the adiabatic stack *)
  Alcotest.(check int) "one solve per sweep point" 7
    (modal_solves () - solves0);
  let par = with_jobs 4 (fun () -> Postplace.Experiment.run_fig6 ~overheads fl) in
  let points f =
    (f.Postplace.Experiment.default_points, f.Postplace.Experiment.eri_points,
     f.Postplace.Experiment.hw_points)
  in
  Alcotest.(check bool) "sweep points bit-identical" true
    (points seq = points par);
  (* the fused Default+HW job must reproduce the per-scheme layout, where
     every scheme was its own job and HW re-evaluated its Default
     placement *)
  let base = F.evaluate fl fl.F.base_placement in
  let point scheme ev =
    Postplace.Experiment.point_of_eval fl ~base ~scheme ev
  in
  let default_eval frac =
    F.evaluate fl
      (F.apply_default fl
         ~utilization:(fl.F.base_utilization /. (1.0 +. frac)))
  in
  let eri_eval frac =
    let num_rows = fl.F.base_placement.P.fp.FP.num_rows in
    let rows =
      max 1 (int_of_float (Float.round (frac *. float_of_int num_rows)))
    in
    F.evaluate fl
      (F.apply_eri fl ~base ~rows).Postplace.Technique.eri_placement
  in
  let per_scheme =
    ( List.map (fun f -> point "Default" (default_eval f)) overheads,
      List.map (fun f -> point "ERI" (eri_eval f)) overheads,
      List.map
        (fun f ->
           point "HW" (F.evaluate fl (F.apply_hw fl ~on:(default_eval f) ())))
        overheads )
  in
  Alcotest.(check bool) "fused jobs bit-identical to per-scheme jobs" true
    (points seq = per_scheme)

(* --- qcheck properties -------------------------------------------------------------- *)

let prop_eri_always_legal =
  QCheck.Test.make ~name:"ERI legal for any row budget" ~count:20
    QCheck.(int_range 0 30)
    (fun rows ->
       let fl = Lazy.force flow in
       let ev = Lazy.force base_eval in
       let r = Postplace.Flow.apply_eri fl ~base:ev ~rows in
       P.validate r.Postplace.Technique.eri_placement = [])

let prop_detect_threshold_monotone =
  QCheck.Test.make ~name:"higher threshold, fewer hot tiles" ~count:20
    QCheck.(pair (float_range 0.2 0.8) (float_range 0.05 0.15))
    (fun (t, dt) ->
       let ev = Lazy.force base_eval in
       let pl = ev.Postplace.Flow.placement in
       let count thr =
         List.fold_left
           (fun acc h -> acc + Postplace.Hotspot.tile_count h)
           0
           (Postplace.Hotspot.detect ~thermal:ev.Postplace.Flow.thermal_map
              ~placement:pl ~threshold_frac:thr ())
       in
       count (t +. dt) <= count t)

let prop_overhead_nonnegative =
  QCheck.Test.make ~name:"ERI area overhead is monotone in rows" ~count:15
    QCheck.(pair (int_range 0 15) (int_range 0 15))
    (fun (r1, r2) ->
       let fl = Lazy.force flow in
       let ev = Lazy.force base_eval in
       let base = fl.Postplace.Flow.base_placement in
       let ov r =
         Postplace.Technique.area_overhead_pct ~base
           (Postplace.Flow.apply_eri fl ~base:ev ~rows:r)
             .Postplace.Technique.eri_placement
       in
       if r1 <= r2 then ov r1 <= ov r2 +. 1e-9
       else ov r2 <= ov r1 +. 1e-9)

(* A flow solve is modal; Jacobi-CG on the problem's stencil solves the
   same system to a 1e-10 relative residual, so an evaluation's thermal
   map must match a Jacobi solve of its own power map. Random small
   designs: seed, hot unit, utilization and mesh size vary; the base and
   a Default placement are both checked. *)
let prop_mg_default_matches_jacobi =
  QCheck.Test.make ~name:"MG default evaluation matches Jacobi override"
    ~count:5
    QCheck.(
      quad (int_range 0 10_000) (int_range 0 2) (float_range 0.65 0.9)
        (int_range 2 4))
    (fun (seed, hot, utilization, quarter) ->
       let module F = Postplace.Flow in
       let nx = 4 * quarter in
       let fl =
         F.prepare ~seed ~utilization ~sim_cycles:60
           ~mesh_config:{ Thermal.Mesh.default_config with nx; ny = nx }
           (Netgen.Benchmark.small ())
           (Logicsim.Workload.make ~default:0.05 ~hot:[ (hot, 0.5) ])
       in
       let agree pl =
         let ev = F.evaluate fl pl in
         let jacobi =
           let cfg = fl.F.mesh_config in
           let p = Thermal.Mesh.build cfg ~power:ev.F.power_map in
           let x =
             (Thermal.Cg.solve (Thermal.Mesh.stencil p)
                ~b:(Thermal.Mesh.rhs p) ())
               .Thermal.Cg.x
           in
           Geo.Grid.of_function ~nx:cfg.Thermal.Mesh.nx
             ~ny:cfg.Thermal.Mesh.ny ~extent:(Thermal.Mesh.extent p)
             ~f:(fun ~ix ~iy ->
                 x.(Thermal.Mesh.node_index cfg ~ix ~iy
                      ~iz:cfg.Thermal.Mesh.stack.Thermal.Stack.power_layer))
         in
         let peak = Geo.Grid.max_value jacobi in
         let worst = ref 0.0 in
         Geo.Grid.iteri jacobi ~f:(fun ~ix ~iy v ->
             worst :=
               Float.max !worst
                 (Float.abs (Geo.Grid.get ev.F.thermal_map ~ix ~iy -. v)));
         !worst <= 1e-8 *. Float.abs peak
       in
       agree fl.F.base_placement
       && agree (F.apply_default fl ~utilization:(utilization /. 1.2)))

let () =
  Alcotest.run "postplace"
    [ ("hotspot",
       [ Alcotest.test_case "single cluster" `Quick
           test_detect_single_cluster;
         Alcotest.test_case "two clusters sorted" `Quick
           test_detect_two_clusters_sorted;
         Alcotest.test_case "diagonal not connected" `Quick
           test_detect_diagonal_not_connected;
         Alcotest.test_case "threshold validated" `Quick
           test_detect_threshold_validation;
         Alcotest.test_case "flat map" `Quick
           test_detect_flat_map_no_hotspots;
         Alcotest.test_case "span rows / is_wide" `Quick
           test_span_rows_and_wide;
         Alcotest.test_case "off-core rect maps to empty span" `Quick
           test_spans_off_core_rect ]);
      ("eri",
       [ Alcotest.test_case "geometry" `Quick test_eri_geometry;
         Alcotest.test_case "inserted rows empty" `Quick
           test_eri_inserted_rows_empty;
         Alcotest.test_case "cell sites preserved" `Quick
           test_eri_preserves_cell_sites;
         Alcotest.test_case "zero rows identity" `Quick
           test_eri_zero_rows_identity;
         Alcotest.test_case "negative rejected" `Quick
           test_eri_rejects_negative;
         Alcotest.test_case "overhead matches rows" `Quick
           test_eri_overhead_matches_rows ]);
      ("default",
       [ Alcotest.test_case "utilization and legality" `Quick
           test_default_utilization_and_legality;
         Alcotest.test_case "overhead scaling" `Quick
           test_default_overhead_scaling ]);
      ("hw",
       [ Alcotest.test_case "legality and containment" `Quick
           test_hw_legality_and_hot_cells_inside;
         Alcotest.test_case "skips large hotspots" `Quick
           test_hw_skips_large_hotspots;
         Alcotest.test_case "reduces local density" `Quick
           test_hw_reduces_local_density;
         Alcotest.test_case "risk assessment" `Quick
           test_wrapper_risk_assessment;
         Alcotest.test_case "skip risky" `Quick
           test_wrapper_skip_risky_is_safe ]);
      ("flow",
       [ Alcotest.test_case "area overhead" `Quick test_area_overhead_pct;
         Alcotest.test_case "evaluation sane" `Quick
           test_flow_evaluation_sane;
         Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
         Alcotest.test_case "seed changes activity" `Quick
           test_flow_seed_changes_activity;
         Alcotest.test_case "placement digests pinned" `Quick
           test_flow_placement_digests_pinned ]);
      ("insertion-primitive",
       [ Alcotest.test_case "mapping" `Quick
           test_apply_row_insertions_mapping;
         Alcotest.test_case "shifted rows" `Quick test_shifted_rows;
         Alcotest.test_case "clustered style" `Quick
           test_clustered_style_contiguous ]);
      ("row-profile",
       [ Alcotest.test_case "trial pricing allocation bounded" `Quick
           test_trial_pricing_allocation;
         QCheck_alcotest.to_alcotest prop_row_profile_matches_power_map ]);
      ("electrothermal",
       [ Alcotest.test_case "feedback" `Quick test_electrothermal_feedback;
         Alcotest.test_case "leakage scaling" `Quick
           test_leakage_scaling_formula ]);
      ("optimizer",
       [ Alcotest.test_case "budget and legality" `Quick
           test_optimizer_budget_and_legality;
         Alcotest.test_case "reduces peak" `Quick
           test_optimizer_reduces_peak;
         Alcotest.test_case "validation" `Quick test_optimizer_validation;
         Alcotest.test_case "parallel identical to sequential" `Quick
           test_optimizer_parallel_identical;
         Alcotest.test_case "fft screening parity" `Quick
           test_optimizer_fft_screening_parity;
         Alcotest.test_case "faults reach their targets" `Quick
           test_optimizer_faults_reach_targets;
         Alcotest.test_case "20x20 plans pinned" `Quick
           test_optimizer_plans_pinned ]);
      ("gradient-guide",
       [ Alcotest.test_case "flow sensitivity smoke" `Quick
           test_flow_sensitivity_smoke;
         Alcotest.test_case "guide not in fingerprint" `Quick
           test_guide_not_in_fingerprint;
         Alcotest.test_case "matches peak-guide quality" `Quick
           test_gradient_guide_matches_peak_quality;
         Alcotest.test_case "parallel identical to sequential" `Quick
           test_gradient_guide_parallel_identical ]);
      ("experiment",
       [ Alcotest.test_case "fig6 parallel identical" `Quick
           test_fig6_parallel_identical ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_eri_always_legal; prop_detect_threshold_monotone;
           prop_overhead_nonnegative; prop_mg_default_matches_jacobi ]) ]
