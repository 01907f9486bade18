module P = Place.Placement
module FP = Place.Floorplan

let area_overhead_pct ~base pl =
  let a0 = FP.core_area_um2 base.P.fp in
  100.0 *. (FP.core_area_um2 pl.P.fp -. a0) /. a0

let legalize nl fp ~regions ~cells_of_region ~positions =
  try Place.Legalize.run nl fp ~regions ~cells_of_region ~positions
  with Place.Legalize.Region_overflow tag ->
    Robust.Error.raise_
      (Robust.Error.Invariant_violation
         { check = "place.legalize";
           detail =
             Printf.sprintf "the rows of unit %d's region cannot hold its \
                             cells" tag })

let uniform_slack ?(aspect = 1.0) nl tech ~unit_areas ~cells_of_region
    ~positions ~from_core ~utilization =
  let cell_area =
    Netlist.Types.fold_cells nl ~init:0.0 ~f:(fun acc _ c ->
        acc +. Celllib.Info.area_um2 tech c.Netlist.Types.kind)
  in
  let fp = FP.create tech ~cell_area_um2:cell_area ~utilization ~aspect in
  let regions = Place.Regions.pack fp ~areas:unit_areas in
  let positions =
    Place.Global.scaled positions ~from_core ~to_core:fp.FP.core
  in
  legalize nl fp ~regions ~cells_of_region ~positions

let power_aware_slack ?(aspect = 1.0) nl tech ~unit_areas ~unit_powers
    ~cells_of_region ~positions ~from_core ~utilization =
  let cell_area = Array.fold_left (fun s (_, a) -> s +. a) 0.0 unit_areas in
  let fp = FP.create tech ~cell_area_um2:cell_area ~utilization ~aspect in
  let core_area = FP.core_area_um2 fp in
  let slack = Float.max 0.0 (core_area -. cell_area) in
  let total_power = Array.fold_left (fun s (_, p) -> s +. p) 0.0 unit_powers in
  (* region area = own cells + a power-proportional share of the slack *)
  let region_areas =
    Array.map
      (fun (tag, area) ->
         let power =
           match Array.find_opt (fun (t, _) -> t = tag) unit_powers with
           | Some (_, p) -> p
           | None -> 0.0
         in
         let share =
           if total_power > 0.0 then slack *. power /. total_power
           else slack /. float_of_int (Array.length unit_areas)
         in
         (tag, area +. share))
      unit_areas
  in
  let regions = Place.Regions.pack fp ~areas:region_areas in
  let positions =
    Place.Global.scaled positions ~from_core ~to_core:fp.FP.core
  in
  legalize nl fp ~regions ~cells_of_region ~positions

(* --- Empty row insertion ------------------------------------------------ *)

type eri_result = {
  eri_placement : P.t;
  inserted_after : int list;
}

(* Merge the hotspots' row spans into disjoint intervals. *)
let merged_spans fp hotspots =
  let spans =
    List.map (Hotspot.span_rows fp) hotspots
    (* a hotspot entirely outside the core maps to an empty span *)
    |> List.filter (fun (l, h) -> l <= h)
    |> List.sort compare
  in
  let rec merge = function
    | (l1, h1) :: (l2, h2) :: rest when l2 <= h1 + 1 ->
      merge ((l1, max h1 h2) :: rest)
    | s :: rest -> s :: merge rest
    | [] -> []
  in
  merge spans

(* Choose [budget] insertion points ("after row r") for one span, widening
   the span when the budget exceeds its row count. *)
let span_insertions fp (lo, hi) budget =
  let num_rows = fp.FP.num_rows in
  let lo = ref lo and hi = ref hi in
  while !hi - !lo + 1 < budget && (!lo > 0 || !hi < num_rows - 1) do
    if !lo > 0 then decr lo;
    if !hi < num_rows - 1 && !hi - !lo + 1 < budget then incr hi
  done;
  let len = !hi - !lo + 1 in
  List.init budget (fun i -> !lo + (i * len / budget) mod len)

(* Row r rises by the number of insertions a < r: running sums of the
   insertions counted at the first row each one shifts. *)
let shifted_rows ~num_rows after =
  let first = Array.make num_rows 0 in
  List.iter
    (fun a ->
       let k = max 0 (a + 1) in
       if k < num_rows then first.(k) <- first.(k) + 1)
    after;
  let shift = ref 0 in
  Array.mapi (fun r n -> shift := !shift + n; r + !shift) first

(* Apply an explicit insertion plan: an empty row appears right above each
   listed row; rows further up shift. This is the primitive both the
   standard ERI and the greedy optimizer use. *)
let apply_row_insertions pl after =
  let after = List.sort compare after in
  let rows = shifted_rows ~num_rows:pl.P.fp.FP.num_rows after in
  let fp' = FP.with_extra_rows pl.P.fp (List.length after) in
  let locs =
    Array.map (fun (l : P.loc) -> { l with P.row = rows.(l.P.row) }) pl.P.locs
  in
  { eri_placement = P.make pl.P.nl fp' locs; inserted_after = after }

let empty_row_insertion ?(style = `Interleaved) pl ~hotspots ~rows =
  if rows < 0 then invalid_arg "Technique.empty_row_insertion: rows < 0";
  if rows = 0 then
    { eri_placement = pl; inserted_after = [] }
  else begin
    if hotspots = [] then
      invalid_arg "Technique.empty_row_insertion: no hotspots";
    let fp = pl.P.fp in
    let spans = merged_spans fp hotspots in
    if spans = [] then
      (* every hotspot lies entirely outside the core (empty row spans):
         there is no row to widen, so insert nothing rather than dumping
         the whole budget onto row 0 *)
      { eri_placement = pl; inserted_after = [] }
    else begin
      let total_span_rows =
        List.fold_left (fun acc (l, h) -> acc + h - l + 1) 0 spans
      in
      (* split the budget across spans proportionally to their heights *)
      let n_spans = List.length spans in
      let after =
        List.concat
          (List.mapi
             (fun i span ->
                let l, h = span in
                let share =
                  if i = n_spans - 1 then
                    rows
                    - List.fold_left ( + ) 0
                        (List.mapi
                           (fun j (l', h') ->
                              if j < i then
                                rows * (h' - l' + 1) / total_span_rows
                              else 0)
                           spans)
                  else rows * (h - l + 1) / total_span_rows
                in
                if share <= 0 then []
                else
                  match style with
                  | `Interleaved -> span_insertions fp (l, h) share
                  | `Clustered ->
                    (* ablation variant: the whole share lands as one block
                       of empty rows at the span's center *)
                    List.init share (fun _ -> (l + h) / 2))
             spans)
      in
      apply_row_insertions pl after
    end
  end

(* --- Hotspot wrapper ---------------------------------------------------- *)

(* floor before the int conversion: int_of_float truncates toward zero,
   which would map coordinates slightly below the core onto row/site 0
   instead of clamping (see Hotspot.span_rows). *)
let row_span fp (rect : Geo.Rect.t) =
  let rh = fp.FP.tech.Celllib.Tech.row_height_um in
  let lo = int_of_float (Float.floor (rect.Geo.Rect.ly /. rh)) in
  let hi = int_of_float (Float.floor ((rect.Geo.Rect.hy -. 1e-9) /. rh)) in
  (max 0 lo, min (fp.FP.num_rows - 1) hi)

let site_span fp rect =
  let sw = fp.FP.tech.Celllib.Tech.site_width_um in
  let lo = int_of_float (Float.floor (rect.Geo.Rect.lx /. sw)) in
  let hi = int_of_float (Float.floor ((rect.Geo.Rect.hx -. 1e-9) /. sw)) in
  (max 0 lo, min (fp.FP.sites_per_row - 1) hi)

let current_center pl cid = P.cell_center pl cid

(* Pack [cells] into the box via the shared legalizer helper; ordering by
   their current positions keeps the movement local. *)
let pack_box pl ~cells ~row_lo ~row_hi ~site_lo ~site_hi =
  let locs =
    Place.Legalize.legalize_region_rows pl ~cells
      ~order_key:(current_center pl) ~row_lo ~row_hi ~site_lo ~site_hi
  in
  P.make pl.P.nl pl.P.fp locs

let wrap_one pl hotspot ~margin_um =
  let fp = pl.P.fp in
  let core = fp.FP.core in
  let wrapper =
    Geo.Rect.clip (Geo.Rect.inflate hotspot.Hotspot.rect margin_um)
      ~within:core
  in
  (* the whitespace ring: hot cells are re-spread over the inner rectangle
     only, the ring stays empty (fillers) *)
  let inner = Geo.Rect.clip hotspot.Hotspot.rect ~within:core in
  let is_lo, is_hi = site_span fp inner in
  let ir_lo, ir_hi = row_span fp inner in
  let ws_lo, ws_hi = site_span fp wrapper in
  let hot_set = Hashtbl.create 64 in
  List.iter (fun cid -> Hashtbl.replace hot_set cid ()) hotspot.Hotspot.cells;
  (* Only a horizontal window around the wrapper takes part in the repack,
     keeping cell movement local (the paper: "changes of cell positions are
     local, performance overhead is very small"). The window and the row
     span grow on demand until the flanks can absorb the evicted cells. *)
  let rec attempt extra =
    let wr_lo, wr_hi = row_span fp wrapper in
    let wr_lo = max 0 (wr_lo - extra) in
    let wr_hi = min (fp.FP.num_rows - 1) (wr_hi + extra) in
    let wrapper_sites = ws_hi - ws_lo + 1 in
    let halo = (1 + extra) * wrapper_sites in
    let win_lo = max 0 (ws_lo - halo) in
    let win_hi = min (fp.FP.sites_per_row - 1) (ws_hi + halo) in
    let in_window cid =
      let l = pl.P.locs.(cid) in
      l.P.row >= wr_lo && l.P.row <= wr_hi
      && l.P.site + P.width_sites pl cid > win_lo
      && l.P.site <= win_hi
    in
    let hot = ref [] and left = ref [] and right = ref [] in
    let wrap_cx = Geo.Rect.center_x wrapper in
    Netlist.Types.iter_cells pl.P.nl ~f:(fun cid _ ->
        if in_window cid then begin
          if Hashtbl.mem hot_set cid then hot := cid :: !hot
          else begin
            let x, _ = current_center pl cid in
            if x < wrap_cx then left := cid :: !left else right := cid :: !right
          end
        end);
    (* flank boxes exclude the wrapper's site span *)
    let left_box = (win_lo, ws_lo - 1) in
    let right_box = (ws_hi + 1, win_hi) in
    let assign_boxes () =
      let left_cells, right_cells =
        let lw = max 0 (snd left_box - fst left_box + 1) in
        let rw = max 0 (snd right_box - fst right_box + 1) in
        if lw = 0 then ([||], Array.of_list (!left @ !right))
        else if rw = 0 then (Array.of_list (!left @ !right), [||])
        else (Array.of_list !left, Array.of_list !right)
      in
      let pl =
        if Array.length left_cells = 0 then pl
        else
          pack_box pl ~cells:left_cells ~row_lo:wr_lo ~row_hi:wr_hi
            ~site_lo:(fst left_box) ~site_hi:(snd left_box)
      in
      let pl =
        if Array.length right_cells = 0 then pl
        else
          pack_box pl ~cells:right_cells ~row_lo:wr_lo ~row_hi:wr_hi
            ~site_lo:(fst right_box) ~site_hi:(snd right_box)
      in
      let hot_cells = Array.of_list !hot in
      if Array.length hot_cells = 0 then pl
      else begin
        (* prefer the inner rectangle; if the hot cells no longer fit
           (snapping shrank it), fall back to the full wrapper *)
        try
          pack_box pl ~cells:hot_cells ~row_lo:ir_lo ~row_hi:ir_hi
            ~site_lo:is_lo ~site_hi:is_hi
        with Place.Legalize.Region_overflow _ ->
          pack_box pl ~cells:hot_cells ~row_lo:wr_lo ~row_hi:wr_hi
            ~site_lo:ws_lo ~site_hi:ws_hi
      end
    in
    match assign_boxes () with
    | pl' -> pl'
    | exception Place.Legalize.Region_overflow _ ->
      if wr_lo = 0 && wr_hi = fp.FP.num_rows - 1
         && win_lo = 0 && win_hi = fp.FP.sites_per_row - 1
      then
        Robust.Error.raise_
          (Robust.Error.Invariant_violation
             { check = "technique.hw.capacity";
               detail = "core cannot absorb the wrapper" })
      else attempt (extra + 1)
  in
  attempt 0

type wrapper_risk = {
  hotspot_density_w_um2 : float;
  flank_density_before_w_um2 : float;
  flank_density_after_w_um2 : float;
  creates_new_hotspot : bool;
}

let power_in pl ~per_cell_w rect =
  Netlist.Types.fold_cells pl.P.nl ~init:0.0 ~f:(fun acc cid _ ->
      let x, y = P.cell_center pl cid in
      if Geo.Rect.contains rect ~x ~y then acc +. per_cell_w.(cid) else acc)

let assess_wrapper pl ~per_cell_w ~hotspot ~margin_um =
  let core = pl.P.fp.FP.core in
  let wrapper =
    Geo.Rect.clip (Geo.Rect.inflate hotspot.Hotspot.rect margin_um)
      ~within:core
  in
  (* the flanks that will absorb the evicted cells: one wrapper-width band
     on each side, over the wrapper's row span *)
  let band dx =
    Geo.Rect.clip
      (Geo.Rect.make
         ~lx:(wrapper.Geo.Rect.lx +. dx)
         ~ly:wrapper.Geo.Rect.ly
         ~hx:(wrapper.Geo.Rect.hx +. dx)
         ~hy:wrapper.Geo.Rect.hy)
      ~within:core
  in
  let w = Geo.Rect.width wrapper in
  let left = band (-.w) and right = band w in
  let flank_area = Geo.Rect.area left +. Geo.Rect.area right in
  let flank_power = power_in pl ~per_cell_w left +. power_in pl ~per_cell_w right in
  let hot_power = power_in pl ~per_cell_w hotspot.Hotspot.rect in
  let hot_area = Geo.Rect.area hotspot.Hotspot.rect in
  (* evicted power: everything in the wrapper that is not a hotspot cell *)
  let hot_set = Hashtbl.create 64 in
  List.iter (fun cid -> Hashtbl.replace hot_set cid ())
    hotspot.Hotspot.cells;
  let evicted =
    Netlist.Types.fold_cells pl.P.nl ~init:0.0 ~f:(fun acc cid _ ->
        let x, y = P.cell_center pl cid in
        if Geo.Rect.contains wrapper ~x ~y && not (Hashtbl.mem hot_set cid)
        then acc +. per_cell_w.(cid)
        else acc)
  in
  let density p a = if a > 0.0 then p /. a else 0.0 in
  let before = density flank_power flank_area in
  let after = density (flank_power +. evicted) flank_area in
  let hot_density = density hot_power hot_area in
  { hotspot_density_w_um2 = hot_density;
    flank_density_before_w_um2 = before;
    flank_density_after_w_um2 = after;
    creates_new_hotspot = after > hot_density }

let hotspot_wrapper pl ~hotspots ?margin_um ?(max_hotspot_tiles = 100)
    ?skip_risky () =
  let margin_um =
    match margin_um with
    | Some m -> m
    | None -> 2.0 *. pl.P.fp.FP.tech.Celllib.Tech.row_height_um
  in
  let risky h =
    match skip_risky with
    | None -> false
    | Some per_cell_w ->
      (assess_wrapper pl ~per_cell_w ~hotspot:h ~margin_um)
        .creates_new_hotspot
  in
  List.fold_left
    (fun pl h ->
       if Hotspot.tile_count h > max_hotspot_tiles || risky h then pl
       else wrap_one pl h ~margin_um)
    pl hotspots
