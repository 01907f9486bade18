(** Domain invariant checks for the post-placement flow.

    Each function wraps one cheap structural invariant as a
    {!Robust.Validate.check}; [Flow.check_design] and the [thermoplace
    check] CLI subcommand assemble and run them between flow stages. The
    checks are deliberately O(cells), O(tiles) or O(nodes) — cheap enough
    to run on every experiment evaluation without moving the needle on
    runtime. *)

val placement : Place.Placement.t -> Robust.Validate.check
(** ["placement.legal"]: {!Place.Placement.validate} returns no
    out-of-bounds or overlap violations (the first few are quoted in the
    failure detail). *)

val floorplan : Place.Placement.t -> Robust.Validate.check
(** ["floorplan.containment"]: every cell rectangle lies inside the
    floorplan core — a geometric cross-check of the row/site legality
    asserted by {!placement}. *)

val power_map : Geo.Grid.t -> Robust.Validate.check
(** ["power.finite_nonneg"]: every tile power is finite and
    non-negative. *)

val mesh_matrix : Thermal.Stencil.t -> Robust.Validate.check
(** ["mesh.spd_structure"]: positive finite diagonal, finite entries and
    diagonal dominance ([sum |row| <= 2 diag], the resistive-network
    property that underwrites positive definiteness). The stencil is
    symmetric by construction. *)

val temperature : ?max_rise_k:float -> Geo.Grid.t -> Robust.Validate.check
(** ["thermal.bounded"]: every temperature rise is finite, non-negative
    (to a 1e-6 K tolerance) and below [max_rise_k] (default 1000 K —
    far above any physical operating point, so a failure means a solver
    or operator defect rather than a hot design). *)
