(** End-to-end flow: benchmark -> activity -> placement -> power -> thermal.

    Mirrors the paper's Fig. 2: logic simulation annotates switching
    activity, the placed netlist and per-cell powers feed the thermal
    simulator, and the resulting thermal map (plus a user-specified area
    overhead) drives the area-management techniques.

    Per the paper, the techniques "reduce cell density while keeping (cell)
    power consumption unchanged": per-cell powers are computed once on the
    base placement and re-binned (not re-estimated) after each transform. *)

type screen_choice = Screen_auto
(** Nothing reads this type. Pricing is not a choice: the optimizer
    prices candidates by the exact modal blur ({!Optimizer.greedy_rows}).
    It survives, with {!Experiment.test_set_1}'s ignored [?screen], only
    for callers that still name [Screen_auto]. *)

type guide_choice = Guide_peak | Guide_gradient
(** How the optimizer ranks whitespace-allocation candidates (its
    [?guide] argument, {!Optimizer.greedy_rows}). [Guide_peak] (the
    paper's scheme) prices every candidate by its predicted peak
    temperature, from the exact blur. [Guide_gradient] ranks every candidate from one adjoint
    sensitivity solve per round at the incumbent ({!Thermal.Adjoint}):
    the per-tile [dT_peak/d(power)] map prices each candidate's power
    redistribution without any per-candidate solve, and only the
    committed chunk is confirmed exactly. A run option, not part of
    the prepared problem. *)

val guide_of_name : string -> (guide_choice, string) result
(** Parse a CLI / serve-request guide name; anything else is an [Error]
    naming the bad value. *)

val guide_names : string list
(** Every name {!guide_of_name} accepts, ["peak"] first. *)

type t = {
  bench : Netgen.Benchmark.t;
  tech : Celllib.Tech.t;
  workload : Logicsim.Workload.t;
  activity : Logicsim.Activity.report;
  unit_areas : (int * float) array;  (** cell area per unit tag *)
  base_placement : Place.Placement.t;
  base_regions : Place.Regions.region array;
  positions : Place.Global.positions; (** global placement, base core *)
  per_cell_w : float array;
  power_report : Power.Model.report;
  seed : int;
  base_utilization : float;
  mesh_config : Thermal.Mesh.config;
  (** the mesh every thermal solve of this flow runs on; each solve is
      {!Thermal.Mesh.solve_result}: the modal engine, or Jacobi-CG when
      a solver fault is in play *)
}
(** The prepared problem of the paper's Fig. 2: activity, placement,
    per-cell power and the RC network. It carries no run option; what
    the optimizer spends on it is an argument of
    {!Optimizer.greedy_rows}. *)

val cells_of_region : t -> int -> Netlist.Types.cell_id array

val mesh_name : t -> string
(** ["40x40x9"]-style mesh dimensions, for fingerprints and metric
    labels. *)

val config_fingerprint :
  ?extra:(string * string) list ->
  mesh_config:Thermal.Mesh.config ->
  seed:int ->
  utilization:float ->
  unit ->
  string
(** Readable pipe-joined problem fingerprint:
    [mesh=…|precond=mg|seed=…|util=…], with [extra] key/value pairs
    appended in order. It is a pure function of the configuration, so
    the serve loop batches and caches prepared flows on it before
    preparing anything; equal fingerprints name the same prepared
    problem. [precond=mg] is a constant that selects nothing (the solver
    is not a choice), kept so older ledger records compare. Records
    written before the guide became an optimizer argument also carry
    [screen=…|guide=…] after it; [thermoplace history] reads them
    unchanged. *)

val prepare :
  ?seed:int ->
  ?utilization:float ->
  ?sim_cycles:int ->
  ?warmup_cycles:int ->
  ?mesh_config:Thermal.Mesh.config ->
  Netgen.Benchmark.t ->
  Logicsim.Workload.t ->
  t
(** Defaults: seed 42, utilization 0.85 (the compact base placement),
    1000 measured cycles after 64 warm-up cycles, 40 x 40 x 9 mesh. *)

type evaluation = {
  placement : Place.Placement.t;
  power_map : Geo.Grid.t;     (** W per tile *)
  thermal_map : Geo.Grid.t;   (** K rise, active layer *)
  metrics : Thermal.Metrics.t;
  hotspots : Hotspot.t list;
  timing : Sta.Timing.result;
}

val solve_power_result :
  ?mesh_config:Thermal.Mesh.config -> t -> Geo.Grid.t ->
  (Thermal.Mesh.solution, Robust.Error.t) result
(** Build the mesh for a W-per-tile power map and solve it
    ({!Thermal.Mesh.solve_result}: modal, or Jacobi-CG when a solver
    fault is in play). [mesh_config] overrides the flow's mesh (the optimizer
    ranks on its own grid). *)

val solve_power :
  ?mesh_config:Thermal.Mesh.config -> t -> Geo.Grid.t ->
  Thermal.Mesh.solution
(** {!solve_power_result}, raising [Robust.Error.Error] on failure. *)

val evaluate_result : t -> Place.Placement.t ->
  (evaluation, Robust.Error.t) result
(** Re-bin power at the placement, solve the thermal network, detect
    hotspots, run temperature-derated STA. Invariant checks guard the
    stage boundaries: the power map must be finite and non-negative
    before the solve, the temperature field finite and bounded after it
    — a violation (or a solve whose retry failed too) is returned as a
    structured {!Robust.Error.t} instead of propagating NaNs into
    downstream metrics. *)

val evaluate : t -> Place.Placement.t -> evaluation
(** {!evaluate_result}, raising [Robust.Error.Error] on failure. *)

val sensitivity_result :
  ?sharpness:float -> t -> Place.Placement.t ->
  (Thermal.Adjoint.t, Robust.Error.t) result
(** Adjoint sensitivity of the smoothed peak temperature at a placement:
    re-bin power, validate it, then one forward and one adjoint solve
    on the flow's mesh ({!Thermal.Adjoint.solve_result}). The result's
    [sensitivity] grid is the per-tile [dT_peak/d(power)] map in K/W
    that [Guide_gradient] ranks candidates with. *)

val sensitivity : ?sharpness:float -> t -> Place.Placement.t ->
  Thermal.Adjoint.t
(** {!sensitivity_result}, raising [Robust.Error.Error] on failure. *)

val check_design : t -> Place.Placement.t -> Robust.Validate.outcome list
(** Run the full invariant suite ({!Checks.placement},
    {!Checks.floorplan}, {!Checks.power_map}, {!Checks.mesh_matrix} and,
    when the solve succeeds, {!Checks.temperature}) without
    short-circuiting; a failed thermal solve appears as a failed
    ["thermal.solve"] pseudo-check. Backs the [thermoplace check]
    subcommand. *)

val apply_default : t -> utilization:float -> Place.Placement.t
(** The Default scheme at a given utilization factor. *)

val rows_for_overhead : ?nearest:bool -> t -> float -> int
(** The ERI row count for an area-overhead fraction of the base
    placement's rows, at least 1. Rounded down by default, the CLI and
    serve rule, so the budget stays within the overhead; [~nearest:true]
    rounds to the closest row count, the paper experiments' rule for
    placing each point nearest its overhead. *)

val apply_eri : t -> base:evaluation -> rows:int -> Technique.eri_result
(** ERI with [rows] extra rows next to [base]'s hotspots. *)

val apply_power_aware : t -> utilization:float -> Place.Placement.t
(** The placement-time thermal-aware baseline: whitespace distributed by
    unit power instead of uniformly (see {!Technique.power_aware_slack}). *)

val apply_hw : t -> on:evaluation -> ?margin_um:float ->
  ?max_hotspot_tiles:int -> unit -> Place.Placement.t
(** HW around [on]'s hotspots (usually a Default evaluation). *)
