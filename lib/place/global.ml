module T = Netlist.Types

type positions = (float * float) array

let cell_area tech cid nl =
  Celllib.Info.area_um2 tech (T.cell nl cid).T.kind

(* Scatter a handful of cells uniformly over a leaf rectangle in reading
   order; exact coordinates are irrelevant because legalization re-snaps. *)
let place_leaf positions (cells : T.cell_id array) (rect : Geo.Rect.t) =
  let n = Array.length cells in
  if n > 0 then begin
    let cols = int_of_float (Float.ceil (sqrt (float_of_int n))) in
    let rows = ((n + cols - 1) / cols) in
    Array.iteri
      (fun i cid ->
         let cx = i mod cols and cy = i / cols in
         let fx = (float_of_int cx +. 0.5) /. float_of_int cols in
         let fy = (float_of_int cy +. 0.5) /. float_of_int rows in
         positions.(cid) <-
           (rect.Geo.Rect.lx +. (fx *. Geo.Rect.width rect),
            rect.Geo.Rect.ly +. (fy *. Geo.Rect.height rect)))
      cells
  end

let place ?(leaf_cells = 8) nl tech ~regions ~cells_of_region =
  Obs.Trace.with_span "place.global" @@ fun () ->
  let positions = Array.make (T.num_cells nl) (Float.nan, Float.nan) in
  let rec bisect (cells : T.cell_id array) (rect : Geo.Rect.t) =
    if Array.length cells <= leaf_cells then place_leaf positions cells rect
    else begin
      let areas = Array.map (fun cid -> cell_area tech cid nl) cells in
      let total = Array.fold_left ( +. ) 0.0 areas in
      let max_cell = Array.fold_left Float.max 0.0 areas in
      let result =
        Partition.bipartition nl ~cells ~areas ~target_a:0.5
          ~tolerance:(Float.max max_cell (0.05 *. total))
      in
      let frac =
        if total > 0.0 then Float.max 0.1 (Float.min 0.9 (result.Partition.area_a /. total))
        else 0.5
      in
      let part p = (* cells on side A when p = false *)
        let keep = ref [] in
        Array.iteri
          (fun i cid -> if result.Partition.side.(i) = p then keep := cid :: !keep)
          cells;
        Array.of_list (List.rev !keep)
      in
      let a_cells = part false and b_cells = part true in
      let vertical = Geo.Rect.width rect >= Geo.Rect.height rect in
      let a_rect, b_rect =
        if vertical then begin
          let split = rect.Geo.Rect.lx +. (frac *. Geo.Rect.width rect) in
          (Geo.Rect.make ~lx:rect.Geo.Rect.lx ~ly:rect.Geo.Rect.ly
             ~hx:split ~hy:rect.Geo.Rect.hy,
           Geo.Rect.make ~lx:split ~ly:rect.Geo.Rect.ly
             ~hx:rect.Geo.Rect.hx ~hy:rect.Geo.Rect.hy)
        end else begin
          let split = rect.Geo.Rect.ly +. (frac *. Geo.Rect.height rect) in
          (Geo.Rect.make ~lx:rect.Geo.Rect.lx ~ly:rect.Geo.Rect.ly
             ~hx:rect.Geo.Rect.hx ~hy:split,
           Geo.Rect.make ~lx:rect.Geo.Rect.lx ~ly:split
             ~hx:rect.Geo.Rect.hx ~hy:rect.Geo.Rect.hy)
        end
      in
      bisect a_cells a_rect;
      bisect b_cells b_rect
    end
  in
  Array.iter
    (fun r -> bisect (cells_of_region r.Regions.tag) r.Regions.rect)
    regions;
  positions

let scaled positions ~from_core ~to_core =
  let sx = Geo.Rect.width to_core /. Geo.Rect.width from_core in
  let sy = Geo.Rect.height to_core /. Geo.Rect.height from_core in
  Array.map
    (fun (x, y) ->
       if Float.is_nan x then (x, y)
       else
         (to_core.Geo.Rect.lx +. ((x -. from_core.Geo.Rect.lx) *. sx),
          to_core.Geo.Rect.ly +. ((y -. from_core.Geo.Rect.ly) *. sy)))
    positions
