(** Standard-cell kinds of the synthetic 65 nm-class library.

    The library carries the usual combinational footprint of an arithmetic-
    oriented flow (the paper's benchmark is nine arithmetic units), one
    flip-flop, and filler cells of power-of-two widths used by the
    whitespace-allocation techniques. *)

type t =
  | Inv
  | Buf
  | Nand2
  | Nand3
  | Nor2
  | Nor3
  | And2
  | And3
  | Or2
  | Or3
  | Xor2
  | Xnor2
  | Aoi21  (** y = not ((a and b) or c) *)
  | Oai21  (** y = not ((a or b) and c) *)
  | Mux2   (** y = if s then b else a, pins (a, b, s) *)
  | Dff    (** posedge D flip-flop, pin (d); the clock is implicit *)
  | Filler of int  (** zero-power filler; the int is the width in sites *)

val all_logic : t list
(** Every kind that has transistors (everything except fillers). *)

val filler_widths : int list
(** Widths (in sites) of the filler variants layout code may instantiate. *)

val name : t -> string

val num_inputs : t -> int
(** Input pin count; 0 for fillers. *)

val is_sequential : t -> bool

val is_filler : t -> bool

val eval : t -> bool array -> bool
(** Boolean function of a combinational kind applied to its input values.
    Raises [Invalid_argument] on [Dff] and [Filler] or on an input vector of
    the wrong arity. *)

val eval3 : t -> bool -> bool -> bool -> bool
(** [eval3 k a b c] is [eval k] on pins (a, b, c) without building an input
    vector: pins beyond [num_inputs k] are ignored. {!eval} delegates to it,
    so both define one function per kind. Raises [Invalid_argument] on
    [Dff] and [Filler]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
