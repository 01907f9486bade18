(** Workload models: how busy each benchmark unit is.

    The paper controls "the size and position of hotspots using different
    workloads"; here a workload maps each unit tag to the per-cycle toggle
    probability of that unit's primary inputs. *)

type t

val uniform : float -> t
(** Every unit's inputs toggle with the same probability. *)

val make : default:float -> hot:(int * float) list -> t
(** [make ~default ~hot] toggles unit [tag] inputs with the probability
    bound in [hot], every other unit with [default]. Probabilities must lie
    in [\[0,1\]]. *)

val scattered_hotspots : hot_units:int list -> t
(** The paper's test set 1 shape: the listed units run at high activity
    (0.5 toggle probability), the rest nearly idle (0.02). *)

val concentrated_hotspot : hot_unit:int -> t
(** The paper's test set 2 shape: one unit fully active, the rest idle. *)

val activity : t -> tag:int -> float
(** Toggle probability for a unit tag (untagged inputs use the default). *)

val input_probabilities : t -> Netlist.Types.t -> float array
(** Toggle probability of each primary input of a netlist, in input-index
    order. *)

val flip_inputs : float array -> Geo.Rng.t -> flip:(int -> unit) -> unit
(** [flip_inputs probs rng ~flip] stages one cycle of stimuli: one
    [Geo.Rng.bernoulli] draw per primary input, in index order, calling
    [flip k] for each input [k] that toggles. Every simulator drives its
    inputs through it, so equal seeds give equal stimulus streams. *)

val drive : t -> Sim.t -> Geo.Rng.t -> unit
(** Stage one cycle of stimuli: every primary input flips with its unit's
    probability. *)

val run : t -> Sim.t -> Geo.Rng.t -> cycles:int -> unit
(** [drive] + [Sim.step], [cycles] times; the per-input probabilities are
    resolved once per call. *)
