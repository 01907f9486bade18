(** Region-constrained recursive-bisection global placement.

    Each unit's cells are placed inside that unit's region by recursive
    min-cut bisection: the cell set is FM-bipartitioned by area, the region
    is split across its longer dimension at the area balance point, and the
    halves recurse. Leaves scatter their few cells over the leaf rectangle.
    The output is a continuous (x, y) center per cell; legalization snaps
    to rows and sites. *)

type positions = (float * float) array
(** Per cell id: continuous center coordinates in µm. Cells that were not
    given to the placer keep (nan, nan). *)

val place :
  ?leaf_cells:int ->
  Netlist.Types.t ->
  Celllib.Tech.t ->
  regions:Regions.region array ->
  cells_of_region:(int -> Netlist.Types.cell_id array) ->
  positions
(** [place nl tech ~regions ~cells_of_region] runs bisection inside
    every region. [leaf_cells] (default 8) bounds the recursion. *)

val scaled : positions -> from_core:Geo.Rect.t -> to_core:Geo.Rect.t ->
  positions
(** Linearly remap positions between core outlines — how the Default
    technique reuses one global placement at several utilization factors. *)
