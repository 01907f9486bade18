let power_map pl ~per_cell_w ~nx ~ny =
  let nl = pl.Place.Placement.nl in
  if Array.length per_cell_w <> Netlist.Types.num_cells nl then
    invalid_arg "Power.Map.power_map: per_cell_w length mismatch";
  let core = pl.Place.Placement.fp.Place.Floorplan.core in
  let grid = Geo.Grid.create ~nx ~ny ~extent:core in
  Netlist.Types.iter_cells nl ~f:(fun cid _ ->
      let w = per_cell_w.(cid) in
      if w > 0.0 then
        Geo.Grid.deposit grid (Place.Placement.cell_rect pl cid) w);
  grid

let density_map pl ~per_cell_w ~nx ~ny =
  let grid = power_map pl ~per_cell_w ~nx ~ny in
  let ta = Geo.Grid.tile_area grid in
  Geo.Grid.map grid ~f:(fun w -> w /. ta)

(* rows.(r).(ix): the watts of row r in x-tile ix *)
type row_profile = { nx : int; rows : float array array }

(* One tile row per placement row: every cell is one row high, so tile row
   r holds row r's cells split by their x-overlap fractions (tile and row
   edges agree up to rounding). *)
let row_profile pl ~per_cell_w ~nx =
  let num_rows = pl.Place.Placement.fp.Place.Floorplan.num_rows in
  let g = power_map pl ~per_cell_w ~nx ~ny:num_rows in
  let row r = Array.init nx (fun ix -> Geo.Grid.get g ~ix ~iy:r) in
  { nx; rows = Array.init num_rows row }

(* A footprint's share of a tile is its x-overlap fraction times its
   y-overlap fraction. The y fractions are inline, so that a trial
   allocates only its map: row [rows.(r)]'s footprint as
   [Place.Placement.cell_rect] has it, clipped to the die, against each y
   tile it reaches. *)
let of_row_profile p ~fp ~rows ~ny =
  if Array.length rows <> Array.length p.rows then
    invalid_arg "Power.Map.of_row_profile: row table length mismatch";
  let nx = p.nx and core = fp.Place.Floorplan.core in
  let rh = fp.Place.Floorplan.tech.Celllib.Tech.row_height_um in
  let e_ly = core.Geo.Rect.ly and e_hy = core.Geo.Rect.hy in
  let h = (e_hy -. e_ly) /. float_of_int ny in
  let data = Array.make (nx * ny) 0.0 in
  Array.iteri
    (fun r profile ->
       let ly = float_of_int rows.(r) *. rh in
       let hy = if ly +. rh < e_hy then ly +. rh else e_hy in
       let ly = if ly > e_ly then ly else e_ly in
       if hy > ly then
         for iy = max 0 (int_of_float ((ly -. e_ly) /. h))
           to min (ny - 1) (int_of_float ((hy -. e_ly) /. h)) do
           let t = e_ly +. (float_of_int iy *. h) in
           let ov =
             (if hy < t +. h then hy else t +. h) -. if ly > t then ly else t
           in
           if ov > 0.0 then begin
             let frac = ov /. (hy -. ly) in
             for ix = 0 to nx - 1 do
               let i = (iy * nx) + ix in
               data.(i) <- data.(i) +. (frac *. profile.(ix))
             done
           end
         done)
    p.rows;
  Geo.Grid.of_array ~nx ~ny ~extent:core data
