(** Fault-injection registry.

    Deep layers (the CG solver, the mesh build, the domain pool, the
    flow's power-map stage) carry guarded hooks that fire only when
    the corresponding fault is armed here — in production nothing is
    armed and every hook is a single relaxed [Atomic.get]. The test suite
    and the [scripts/check.sh] smoke arm faults (via {!arm} or the
    [THERMOPLACE_FAULTS] environment variable) and then prove that each
    injected fault is either recovered (the CG retry) or surfaced as
    a structured {!Error.t} — never a silent wrong answer.

    Faults are armed with a count and consumed one shot at a time, so a
    single armed fault perturbs exactly one site; arming with a larger
    count defeats multi-attempt recovery (e.g. [Cg_stall] armed 2x fails
    a CG solve and its cold retry). *)

type fault =
  | Nan_power         (** corrupt the flow's power map with NaN tiles *)
  | Perturb_matrix
  (** build the next mesh operator with NaN lateral couplings in layer 0
      (its diagonal left intact), which every CG attempt and the
      [mesh.spd_structure] check must reject *)
  | Cg_stall          (** force one [Cg.solve_raw] call to report
                          non-convergence without iterating *)
  | Kill_worker       (** raise {!Error.Worker_failed} inside a pool chunk *)

val all : fault list

val to_string : fault -> string
(** Lower-snake name, e.g. ["cg_stall"] — the spelling used by
    [THERMOPLACE_FAULTS]. *)

val of_string : string -> fault option

val arm : ?times:int -> fault -> unit
(** Arm [fault] for [times] (default 1) additional firings.
    Raises [Invalid_argument] when [times < 1]. *)

val armed : fault -> bool
(** Non-consuming peek: at least one firing remains. *)

val consume : fault -> bool
(** Fire once: [true] and decrement if armed, [false] otherwise. When
    nothing at all is armed this is one atomic load — safe on hot paths.
    Each firing bumps [robust.faults.injected] and
    [robust.faults.injected.<name>] in {!Obs.Metrics}. *)

val clear : unit -> unit
(** Disarm everything. *)

val with_fault : ?times:int -> fault -> (unit -> 'a) -> 'a
(** Arm, run, then disarm any remaining count of that fault (other
    faults are untouched). For tests. *)

val env_var : string
(** ["THERMOPLACE_FAULTS"]. *)

val parse_spec : string -> ((fault * int) list, string) result
(** Parse a spec like ["cg_stall:4,nan_power"] — comma-separated fault
    names, each optionally [:count]. The empty string parses to []. *)

val init_from_env : unit -> (unit, string) result
(** Arm every fault named in [$THERMOPLACE_FAULTS] (no-op when unset).
    [Error] describes a malformed spec. *)
