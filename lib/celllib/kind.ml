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
  | Aoi21
  | Oai21
  | Mux2
  | Dff
  | Filler of int

let all_logic =
  [ Inv; Buf; Nand2; Nand3; Nor2; Nor3; And2; And3; Or2; Or3;
    Xor2; Xnor2; Aoi21; Oai21; Mux2; Dff ]

let filler_widths = [ 1; 2; 4; 8; 16; 32 ]

let name = function
  | Inv -> "INV"
  | Buf -> "BUF"
  | Nand2 -> "NAND2"
  | Nand3 -> "NAND3"
  | Nor2 -> "NOR2"
  | Nor3 -> "NOR3"
  | And2 -> "AND2"
  | And3 -> "AND3"
  | Or2 -> "OR2"
  | Or3 -> "OR3"
  | Xor2 -> "XOR2"
  | Xnor2 -> "XNOR2"
  | Aoi21 -> "AOI21"
  | Oai21 -> "OAI21"
  | Mux2 -> "MUX2"
  | Dff -> "DFF"
  | Filler w -> Printf.sprintf "FILL%d" w

let num_inputs = function
  | Inv | Buf | Dff -> 1
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 -> 2
  | Nand3 | Nor3 | And3 | Or3 | Aoi21 | Oai21 | Mux2 -> 3
  | Filler _ -> 0

let is_sequential = function
  | Dff -> true
  | Inv | Buf | Nand2 | Nand3 | Nor2 | Nor3 | And2 | And3 | Or2 | Or3
  | Xor2 | Xnor2 | Aoi21 | Oai21 | Mux2 | Filler _ -> false

let is_filler = function
  | Filler _ -> true
  | Inv | Buf | Nand2 | Nand3 | Nor2 | Nor3 | And2 | And3 | Or2 | Or3
  | Xor2 | Xnor2 | Aoi21 | Oai21 | Mux2 | Dff -> false

let arity_error k v =
  invalid_arg
    (Printf.sprintf "Kind.eval %s: expected %d inputs, got %d"
       (name k) (num_inputs k) (Array.length v))

let eval3 k a b c =
  match k with
  | Inv -> not a
  | Buf -> a
  | Nand2 -> not (a && b)
  | Nand3 -> not (a && b && c)
  | Nor2 -> not (a || b)
  | Nor3 -> not (a || b || c)
  | And2 -> a && b
  | And3 -> a && b && c
  | Or2 -> a || b
  | Or3 -> a || b || c
  | Xor2 -> a <> b
  | Xnor2 -> a = b
  | Aoi21 -> not ((a && b) || c)
  | Oai21 -> not ((a || b) && c)
  | Mux2 -> if c then b else a
  | Dff -> invalid_arg "Kind.eval: DFF is not combinational"
  | Filler _ -> invalid_arg "Kind.eval: filler cells have no function"

let eval k v =
  let n = Array.length v in
  if n <> num_inputs k then arity_error k v;
  eval3 k (n > 0 && v.(0)) (n > 1 && v.(1)) (n > 2 && v.(2))

let compare = Stdlib.compare
let equal a b = compare a b = 0
let pp ppf k = Format.pp_print_string ppf (name k)
