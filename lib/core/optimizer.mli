(** Greedy row-budget optimization — the paper's stated future work
    ("improve the efficiency of the approaches by transforming them into
    suitable optimization problems, e.g. the amount of empty rows ... to be
    inserted").

    The optimizer spends an empty-row budget one chunk at a time: each round
    prices every candidate insertion position on a coarse mesh, by a
    warm-started thermal solve, by fft screening with exact solves for the
    leaders only, or by the gradient guide's one adjoint solve (see
    {!greedy_rows}), and commits the chunk with the lowest predicted peak.
    Each trial's power map is built from the base placement's row profiles
    ({!Power.Map.of_row_profile}), binned once per run; only the committed
    plan becomes a placement. This is slower than plain ERI but needs no
    hotspot heuristics and handles multiple competing warm regions. *)

type result = {
  plan : Technique.eri_result;      (** the chosen insertions applied *)
  predicted_peak_k : float;         (** coarse-mesh peak of the final plan *)
  evaluations : int;
  (** exact thermal solves spent (initial seed, anchor and
      candidate/leader solves, and the final re-score); the blur transfer
      is closed-form and costs no solve *)
  blur_evaluations : int;
  (** FFT blur screenings spent; 0 when the exact tier ran *)
  adjoint_evaluations : int;
  (** adjoint sensitivity solves spent; 0 under [Guide_peak] *)
}

val greedy_rows :
  Flow.t ->
  rows:int ->
  ?chunk:int ->
  ?stride:int ->
  ?coarse_nx:int ->
  unit ->
  result
(** [greedy_rows flow ~rows ()] allocates [rows] empty rows on the flow's
    base placement. [chunk] rows are committed per greedy step (default 4),
    candidate positions are every [stride]-th row (default 4), and candidate
    evaluation uses a [coarse_nx] x [coarse_nx] thermal grid (default 20).
    Raises [Invalid_argument] on a non-positive budget or parameter.

    Candidate solves within a round run concurrently on the
    {!Parallel.Pool}, share the round's die extent (and so one
    conductance operator), and are warm-started from the incumbent plan's temperature field. Selection
    walks candidates in their fixed order with a strict-improvement
    tie-break, so the chosen plan is identical for any pool size
    (including sequential).

    When the flow's [screen] tier resolves to fft (see
    {!Flow.screen_choice}), each round solves the first candidate exactly
    once (the anchor), ranks every candidate by the peak of its blurred
    power map corrected by the anchor's exact-minus-blurred error field
    (a control variate — see {!Thermal.Blur.peak}), then runs the exact
    warm-started solve only for the 3 best-ranked candidates, the
    leaders (ties keep candidate order). Anchor and leader solves use
    exactly the inputs the exact tier would, so the committed plan is
    bit-identical to [Screen_exact] whenever the leader set contains the
    exact winner. Screening is skipped when a round has no more than 3
    candidates.

    When the flow's [guide] is {!Flow.Guide_gradient}, the per-candidate
    solves disappear entirely: each round runs one adjoint sensitivity
    solve at the incumbent ({!Thermal.Adjoint}), prices every candidate
    by the inner product of the adjoint map with its trial power map
    (no solve — the thermal system is linear, so the inner product is
    the candidate's first-order peak up to a round-constant), allocates
    the chunk across candidates with an 8-step continuous
    projected-gradient pre-pass rounded by largest remainder, and
    confirms the committed chunk with a single exact warm-started solve.
    Exact solves per run drop from O(rounds * candidates) to
    [rounds + 2] (seed and final re-score) plus [rounds] adjoint solves;
    selection remains deterministic for any pool size. *)

val evaluate_plan : Flow.t -> after:int list -> nx:int -> float
(** Peak temperature rise (K) of the base placement with the given
    insertion plan applied, on an [nx] x [nx] mesh. It bins the plan's
    placement cell by cell, not from row profiles: the tests' oracle. *)
