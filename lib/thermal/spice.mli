(** SPICE netlist export of the steady-state thermal network.

    The paper's thermal model "builds the RC thermal network and solves
    using SPICE"; at steady state the network is resistive, so this module
    emits exactly that netlist — resistors between thermal nodes, grounded
    boundary resistors (the ambient voltage source collapses to ground when
    temperatures are expressed as rises), and one current source per
    power-carrying node. Feeding the file to any SPICE gives, as node
    voltages, the same temperatures the modal solver computes — a
    one-command external validation path. *)

val to_string : ?title:string -> Mesh.problem -> string
(** Node [i] becomes SPICE node [n<i>]; units: volts = kelvin rise,
    amperes = watts, ohms = K/W. *)

val write_file : string -> ?title:string -> Mesh.problem -> unit

val count_resistors : Mesh.problem -> int
(** Number of R elements the export contains (coupling + boundary). *)
