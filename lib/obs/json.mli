(** Minimal JSON values, printing and parsing — no external dependencies.

    The observability subsystem serializes run reports with this module and
    the test-suite/smoke checks parse them back; implementing both directions
    here keeps the repo free of a yojson dependency while guaranteeing the
    emitted reports are machine-readable. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact by default; [~pretty:true] indents with two spaces. Non-finite
    floats (which JSON has no number form for) are emitted as the string
    sentinels ["nan"] / ["inf"] / ["-inf"], which {!to_float} decodes
    back — so every [Float] round-trips through print-and-parse (the
    checkpoint codec relies on this; a plain [null] would silently lose
    the value). *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed). Numbers must
    match the strict JSON grammar — no leading ["+"], no bare trailing
    dot (["1.e5"]), no leading zeros; those without a fraction or
    exponent part parse as [Int] when they fit, [Float] otherwise; a
    number beyond the float range (["1e999"]) is an error, so a parsed
    value prints back and re-parses unchanged;
    [\uXXXX] escapes decode to UTF-8. *)

val of_string_exn : string -> t
(** Like {!of_string}; raises [Failure] on a parse error. *)

(** {1 Accessors} — all return [None] on a type or key mismatch. *)

val member : string -> t -> t option

val to_float : t -> float option
(** Accepts [Int], [Float] and the non-finite sentinel strings ["nan"] /
    ["inf"] / ["-inf"] emitted by {!to_string}. *)

val to_int : t -> int option
val to_list : t -> t list option
val to_string_opt : t -> string option
val keys : t -> string list
(** Keys of an object, in order; [[]] for non-objects. *)
