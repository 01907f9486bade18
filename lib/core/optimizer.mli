(** Greedy row-budget optimization — the paper's stated future work
    ("improve the efficiency of the approaches by transforming them into
    suitable optimization problems, e.g. the amount of empty rows ... to be
    inserted").

    The optimizer spends an empty-row budget one chunk at a time: each round
    prices every candidate insertion position on a coarse mesh, by the
    exact modal blur (no solve) or by the gradient guide's one adjoint
    solve (see {!greedy_rows}), and commits the chunk with the lowest
    predicted peak.
    Each trial's power map is built from the base placement's row profiles
    ({!Power.Map.of_row_profile}), binned once per run; only the committed
    plan becomes a placement. This is slower than plain ERI but needs no
    hotspot heuristics and handles multiple competing warm regions. *)

type result = {
  plan : Technique.eri_result;      (** the chosen insertions applied *)
  predicted_peak_k : float;         (** coarse-mesh peak of the final plan *)
  evaluations : int;
  (** exact thermal solves spent: the final re-score alone under the
      peak guide; under the gradient guide the incumbent's seed solve and
      one confirmation per round *)
  blur_evaluations : int;
  (** candidates priced by the blur; 0 under the gradient guide *)
  adjoint_evaluations : int;
  (** adjoint sensitivity solves spent; 0 under [Guide_peak] *)
}

val greedy_rows :
  Flow.t ->
  rows:int ->
  ?guide:Flow.guide_choice ->
  ?chunk:int ->
  ?stride:int ->
  ?coarse_nx:int ->
  unit ->
  result
(** [greedy_rows flow ~rows ()] allocates [rows] empty rows on the flow's
    base placement. [guide] picks the candidate-ranking signal (default
    {!Flow.Guide_peak}, the paper's scheme). [chunk] rows are committed
    per greedy step (default 4), candidate positions are every
    [stride]-th row (default 4), and candidate evaluation uses a
    [coarse_nx] x [coarse_nx] thermal grid (default 20).
    Raises [Invalid_argument] on a non-positive budget or parameter.

    Under {!Flow.Guide_peak} each round computes the blur kernel of its
    die extent once ({!Thermal.Mesh.blur}) and prices every candidate by
    {!Thermal.Blur.peak}: the exact active-layer peak of its trial power
    map, with no solve. No armed fault can reach the blur; each reaches
    its own target, the candidate map's pool chunks or the re-score's
    build and solve. Candidates are priced concurrently on the
    {!Parallel.Pool}, and selection walks them in their fixed order with
    a strict-improvement tie-break, so the chosen plan is identical for
    any pool size (including sequential). The run ends with one solve of
    the committed plan ({!Flow.solve_power}), so [predicted_peak_k] is a
    solve result: a run spends [1] exact solve and
    [rounds * candidates] blurs.

    Under {!Flow.Guide_gradient} the per-candidate pricing disappears
    entirely: each round runs one adjoint sensitivity
    solve at the incumbent ({!Thermal.Adjoint}), prices every candidate
    by the inner product of the adjoint map with its trial power map
    (no solve — the thermal system is linear, so the inner product is
    the candidate's first-order peak up to a round-constant), allocates
    the chunk across candidates with an 8-step continuous
    projected-gradient pre-pass rounded by largest remainder, and
    confirms the committed chunk with a single exact solve; the last
    confirmation's peak is [predicted_peak_k]. A run spends
    [rounds + 1] exact solves (the incumbent's seed solve and one per
    round) plus [rounds] adjoint solves, on any stack; selection remains
    deterministic for any pool size. *)

val evaluate_plan : Flow.t -> after:int list -> nx:int -> float
(** Peak temperature rise (K) of the base placement with the given
    insertion plan applied, on an [nx] x [nx] mesh. It bins the plan's
    placement cell by cell, not from row profiles: the tests' oracle. *)
