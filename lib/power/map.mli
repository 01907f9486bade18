(** Power-density maps: bin per-cell power into the thermal grid tiles.

    A standard cell contributes to every tile its footprint overlaps,
    proportionally to the overlap area — the paper's "power value in a
    thermal cell is the sum of power consumptions in all the standard cells
    that it covers". *)

val power_map : Place.Placement.t -> per_cell_w:float array ->
  nx:int -> ny:int -> Geo.Grid.t
(** Grid over the placement's core; tile values are watts. *)

val density_map : Place.Placement.t -> per_cell_w:float array ->
  nx:int -> ny:int -> Geo.Grid.t
(** Same, in W/µm² (power divided by tile area): the quantity the paper's
    techniques actually reduce. *)

type row_profile
(** Each row of a placement binned over its core's x-tiles. Empty-row
    insertion moves whole rows, never a cell in x, so these profiles give
    a row-shifted placement's map in O(rows * nx) instead of O(cells). *)

val row_profile : Place.Placement.t -> per_cell_w:float array -> nx:int ->
  row_profile
(** Binned with the overlap rule of {!power_map}. *)

val of_row_profile : row_profile -> fp:Place.Floorplan.t -> rows:int array ->
  ny:int -> Geo.Grid.t
(** [of_row_profile p ~fp ~rows ~ny] is the map over [fp]'s core (as wide as
    the profiled one) with base row [r] at row [rows.(r)], allocating only
    the map: up to rounding, {!power_map} of the placement moved so. *)
