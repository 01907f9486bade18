(** The paper's three whitespace-allocation schemes.

    - {!uniform_slack}: the "Default" baseline — relax the placement row
      utilization factor so whitespace spreads over the whole core.
    - {!empty_row_insertion}: ERI — whole empty rows next to the hotspots;
      the core grows vertically, rows above the insertions shift up.
    - {!hotspot_wrapper}: HW — a whitespace ring around each hotspot;
      foreign cells are evicted from the wrapper, hot cells are re-spread
      uniformly inside it. Applied on top of a Default placement, so it
      adds no area of its own (paper §IV). *)

val area_overhead_pct : base:Place.Placement.t -> Place.Placement.t -> float
(** Core-area increase in percent relative to [base]. *)

val legalize :
  Netlist.Types.t ->
  Place.Floorplan.t ->
  regions:Place.Regions.region array ->
  cells_of_region:(int -> Netlist.Types.cell_id array) ->
  positions:Place.Global.positions ->
  Place.Placement.t
(** {!Place.Legalize.run}, the one row legalizer of the flow's
    placements. A unit region whose rows cannot hold its cells (a
    utilization near 1 leaves no room to round cell widths into whole
    rows) raises [Robust.Error.Error (Invariant_violation { check =
    "place.legalize"; _ })] instead of {!Place.Legalize.Region_overflow},
    so the CLI exits 11 and a served job fails without a retry. *)

val uniform_slack :
  ?aspect:float ->
  Netlist.Types.t ->
  Celllib.Tech.t ->
  unit_areas:(int * float) array ->
  cells_of_region:(int -> Netlist.Types.cell_id array) ->
  positions:Place.Global.positions ->
  from_core:Geo.Rect.t ->
  utilization:float ->
  Place.Placement.t
(** Re-place the design into a fresh core sized for [utilization], reusing
    the global placement (scaled into the new outline) — exactly "what
    happens when the utilization factor during placement is reduced". *)

val power_aware_slack :
  ?aspect:float ->
  Netlist.Types.t ->
  Celllib.Tech.t ->
  unit_areas:(int * float) array ->
  unit_powers:(int * float) array ->
  cells_of_region:(int -> Netlist.Types.cell_id array) ->
  positions:Place.Global.positions ->
  from_core:Geo.Rect.t ->
  utilization:float ->
  Place.Placement.t
(** Placement-time thermal awareness (the alternative the paper's intro
    contrasts with post-placement methods, after refs [7][8]): the same
    total whitespace as {!uniform_slack} at the given utilization, but the
    slack is distributed across the unit regions proportionally to each
    unit's power, so busy units get sparser placements from the start. No
    post-placement information (actual hotspot positions) is used. *)

type eri_result = {
  eri_placement : Place.Placement.t;
  inserted_after : int list;
  (** original row indices after which an empty row was inserted *)
}

val shifted_rows : num_rows:int -> int list -> int array
(** [shifted_rows ~num_rows after] maps each of [num_rows] rows to its row
    once an empty row is inserted above each listed row (in any order). *)

val apply_row_insertions : Place.Placement.t -> int list -> eri_result
(** Low-level primitive: insert one empty row above each listed (original)
    row index; duplicates mean several empty rows at the same spot. Cells
    move by {!shifted_rows}. Used by ERI and by the greedy row-budget
    optimizer. *)

val empty_row_insertion :
  ?style:[ `Interleaved | `Clustered ] ->
  Place.Placement.t -> hotspots:Hotspot.t list -> rows:int -> eri_result
(** Insert [rows] empty rows across the hotspot row spans. The default
    [`Interleaved] style spreads them evenly ("an empty row in every other
    row", paper §III-A); [`Clustered] drops the whole budget as one block at
    each span's center — the ablation showing why interleaving matters.
    Raises [Invalid_argument] when [rows] is negative or the hotspot list is
    empty with [rows > 0]. *)

type wrapper_risk = {
  hotspot_density_w_um2 : float;  (** power density inside the hotspot *)
  flank_density_before_w_um2 : float;
  flank_density_after_w_um2 : float;
  (** predicted flank density once the evicted cells land there *)
  creates_new_hotspot : bool;
  (** the predicted flank density exceeds the hotspot's own density — the
      wrapper would just move the peak (paper: "pushing cells away could
      increase the power density in the surrounding area and potentially
      making these areas new hotspots") *)
}

val assess_wrapper : Place.Placement.t -> per_cell_w:float array ->
  hotspot:Hotspot.t -> margin_um:float -> wrapper_risk
(** The paper's "careful analysis of the power density map ... before
    applying this method", as a predictive check. *)

val hotspot_wrapper :
  Place.Placement.t -> hotspots:Hotspot.t list -> ?margin_um:float ->
  ?max_hotspot_tiles:int -> ?skip_risky:float array -> unit ->
  Place.Placement.t
(** Wrap each hotspot no larger than [max_hotspot_tiles] (default 100 tiles;
    the method "is not suitable for large hotspots"): the hotspot rectangle
    inflated by [margin_um] (default two row heights) becomes an exclusive
    move bound with a whitespace ring; non-hotspot cells inside it move to
    the flanks and the hot cells are spread evenly over the inner
    rectangle. When [skip_risky] is given (per-cell powers), hotspots whose
    {!assess_wrapper} predicts a new flank hotspot are left untouched. *)
