(** The paper's experiments, reproduced as data-producing runners.

    Per-experiment index lives in DESIGN.md; every runner here corresponds
    to one table or figure of the evaluation section (plus the in-text
    claims). The bench executable formats these results. *)

val test_set_names : string list
(** The test-set table's names: ["scattered"] (test set 1),
    ["concentrated"] (test set 2) and ["small"] (a 3-unit smoke
    benchmark with one hot unit). The CLI's [--test-set] and the serve
    request's [test_set] both resolve here. *)

val prepare_test_set : ?seed:int -> ?utilization:float -> ?sim_cycles:int ->
  string -> Flow.t
(** Prepare the named test set's benchmark and workload with
    {!Flow.prepare} (whose defaults apply). Raises [Invalid_argument] for
    a name not in {!test_set_names}. *)

val test_set_1 : ?seed:int -> ?sim_cycles:int ->
  ?precond:Thermal.Mesh.precond_choice -> ?screen:Flow.screen_choice ->
  ?guide:Flow.guide_choice -> unit -> Flow.t
(** Four scattered small hotspots: units mul16a, div16, add64 and cmp32 run
    hot (they sit in different corners of the 3 x 3 region grid), the rest
    are nearly idle. Equivalent to [prepare_test_set "scattered"].
    [?precond], [?screen] and [?guide] are ignored: the solver and the
    pricing are not choices, and the guide is an argument of
    {!Optimizer.greedy_rows}, not part of the prepared problem. They
    stay for callers that still name [Pc_mg], [Screen_auto] and
    [Guide_peak]. *)

val test_set_2 : ?seed:int -> ?sim_cycles:int -> unit -> Flow.t
(** One large concentrated hotspot: the 20x20 multiplier (the biggest unit)
    runs hot. Equivalent to [prepare_test_set "concentrated"]. *)

(** One point of the Fig. 6 temperature-reduction/area-overhead plot. *)
type point = {
  scheme : string;             (** "Default" | "ERI" | "HW" *)
  area_overhead_pct : float;
  temp_reduction_pct : float;
  gradient_reduction_pct : float;
  peak_rise_k : float;
  timing_overhead_pct : float;
  hpwl_um : float;
}

val point_of_eval : Flow.t -> base:Flow.evaluation -> scheme:string ->
  Flow.evaluation -> point

val point_to_json : point -> Obs.Json.t
val point_of_json : Obs.Json.t -> point option
(** Exact codec pair ([point_of_json (point_to_json p) = Some p],
    including float bit patterns) — the checkpoint representation of one
    sweep point. *)

type fig6 = {
  base_eval : Flow.evaluation;
  default_points : point list;
  eri_points : point list;
  hw_points : point list;
}

val run_fig6 : ?overheads:float list -> ?checkpoint:string -> Flow.t -> fig6
(** Default overhead fractions: 0.05 to 0.40 in steps of 0.05 (the paper's
    x-axis). Default relaxes utilization; ERI inserts the row count closest
    to each overhead; HW decorates each Default placement with wrappers.

    [?checkpoint] names a {!Robust.Checkpoint} file: completed points are
    re-saved atomically after each evaluation and a rerun resumes from
    whatever the file holds, reproducing the uninterrupted sweep
    bit-identically. The checkpoint is keyed by a config fingerprint
    (seed, mesh, solver, utilization, overhead list and the job
    layout); a mismatched or corrupt file raises
    [Robust.Error.Error (Checkpoint_corrupt _)].

    Each HW point decorates the Default placement of its overhead, so
    one job evaluates that placement once for both points: a sweep over
    [k] overheads costs [2k + k + 1] evaluations (Default, HW, ERI and
    the base), one per point. *)

(** One row of Table I (concentrated hotspot). *)
type table1_row = {
  t1_scheme : string;
  t1_width_um : float;
  t1_height_um : float;
  t1_rows_inserted : int option;
  t1_overhead_pct : float;
  t1_reduction_pct : float;
}

val run_table1 : ?overheads:float list -> Flow.t -> table1_row list
(** Paper overheads: 16.1 % and 32.2 %; each produces one Default and one
    ERI row. *)

type timing_summary = {
  ts_scheme : string;
  ts_overhead_pct : float;
  ts_critical_ps : float;
  ts_overhead_timing_pct : float;
}

val run_timing : Flow.t -> timing_summary list
(** In-text claim "maximum timing overhead is around 2 %": the critical
    path of base, a Default, an ERI and an HW placement. *)

type congestion_summary = {
  cs_scheme : string;
  cs_max_utilization : float;
  cs_overflow_um : float;
  cs_hotspot_demand_um : float;
}

val run_congestion : Flow.t -> congestion_summary list
(** In-text by-product: ERI "reduces routing congestion in the hotspot
    regions". Compares base vs ERI demand inside the hottest region. *)

val fig5_maps : Flow.t -> Geo.Grid.t * Geo.Grid.t
(** (power map, thermal map) of the base placement — the paper's Fig. 5. *)

type electrothermal_row = {
  et_scheme : string;
  et_open_loop_peak_k : float;
  et_closed_loop_peak_k : float;
  et_leakage_increase_pct : float;  (** converged vs nominal leakage *)
  et_iterations : int;
}

val run_electrothermal : Flow.t -> electrothermal_row list
(** Leakage-temperature feedback (paper §I motivation) on the base
    placement and on an ERI placement at ~20 % overhead: closed-loop peaks
    are higher, and the technique's reduction is slightly larger under
    feedback. *)

type package_row = {
  pk_h_top_w_m2k : float;
  pk_peak_k : float;
  pk_gradient_k : float;
  pk_eri_reduction_pct : float;
}

val run_package_sweep : ?sinks:float list -> ?checkpoint:string -> Flow.t ->
  package_row list
(** The paper's §II remark that "for the same total power, it is possible
    to have different peak temperature and temperature gradient by using
    cooling mechanisms with different heat removal capabilities": sweep the
    effective sink conductance and report peak, gradient and the ERI
    benefit under each package. [?checkpoint] behaves as in
    {!run_fig6}. *)

type baseline_row = {
  bl_scheme : string;
  bl_overhead_pct : float;
  bl_reduction_pct : float;
  bl_timing_pct : float;
}

val run_baselines : ?overhead:float -> Flow.t -> baseline_row list
(** Post-placement vs placement-time at matched overhead (default 20 %):
    Default (uniform slack), the power-aware placement baseline, ERI and
    HW. Shows where the post-placement information advantage comes from. *)

(** One scheme of the gradient-vs-peak head-to-head. *)
type guide_row = {
  gd_scheme : string;
  gd_peak_rise_k : float;          (** full-mesh peak after the scheme *)
  gd_reduction_pct : float;
  gd_area_overhead_pct : float;
  gd_exact_solves : int;           (** optimizer thermal solves; 0 for
                                       the heuristic controls *)
  gd_blur_evaluations : int;       (** candidates priced by the blur;
                                       peak guide only *)
  gd_adjoint_solves : int;         (** adjoint solves; gradient guide only *)
}

val run_guide : ?rows:int -> Flow.t -> guide_row list
(** Head-to-head at one row budget (default 8): the greedy optimizer
    under the peak guide (blur-priced: 1 solve), the same optimizer
    under the adjoint gradient guide (rounds + 1 solves and one adjoint
    per round), and the paper's ERI and HW
    heuristics as controls. All four placements are re-evaluated on the
    flow's full mesh, so the rows compare end temperature, area overhead
    and the budget spent to get there. *)

type glitch_row = {
  gl_metric : string;
  gl_zero_delay : float;
  gl_event_driven : float;
}

val run_glitch : ?cycles:int -> Flow.t -> glitch_row list
(** Activity fidelity study: the same workload measured with the cycle
    (zero-delay) engine versus the event-driven unit-delay engine (which
    sees glitches, like the paper's VCS). Reports mean toggle rate, dynamic
    power and the resulting peak temperature rise. *)

type ablation_row = {
  ab_variant : string;
  ab_overhead_pct : float;
  ab_reduction_pct : float;
}

val run_ablation : ?overhead:float -> Flow.t -> ablation_row list
(** Design-choice ablation at one overhead point (default 20 %): ERI with
    interleaved rows (the paper's scheme), ERI with a clustered block of
    rows, and the greedy optimizer (the paper's future-work direction). *)
