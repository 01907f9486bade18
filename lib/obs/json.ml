type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Non-finite floats have no JSON number form. They used to print as
   [null], which silently turned [Float nan] into [Null] across a
   round-trip — fatal for the checkpoint codec's bit-identical-resume
   guarantee. They now print as the string sentinels "nan" / "inf" /
   "-inf", which [to_float] decodes back, so every float value
   round-trips. *)
let nonfinite_repr v =
  if Float.is_nan v then "\"nan\""
  else if v = infinity then "\"inf\""
  else "\"-inf\""

(* shortest representation that round-trips, never in OCaml's "1." form *)
let float_repr v =
  if not (Float.is_finite v) then nonfinite_repr v
  else
    let shortest =
      let s = Printf.sprintf "%.12g" v in
      if float_of_string s = v then s else Printf.sprintf "%.17g" v
    in
    (* guarantee a JSON number that reads back as a float *)
    if String.contains shortest '.' || String.contains shortest 'e'
    then shortest
    else shortest ^ ".0"

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth t =
    match t with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float v -> Buffer.add_string buf (float_repr v)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
           if i > 0 then Buffer.add_char buf ',';
           if pretty then begin
             Buffer.add_char buf '\n';
             indent (depth + 1)
           end;
           go (depth + 1) item)
        items;
      if pretty then begin
        Buffer.add_char buf '\n';
        indent depth
      end;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
           if i > 0 then Buffer.add_char buf ',';
           if pretty then begin
             Buffer.add_char buf '\n';
             indent (depth + 1)
           end;
           escape_string buf k;
           Buffer.add_char buf ':';
           if pretty then Buffer.add_char buf ' ';
           go (depth + 1) v)
        fields;
      if pretty then begin
        Buffer.add_char buf '\n';
        indent depth
      end;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.src in
  while st.pos < n
        && (match st.src.[st.pos] with
            | ' ' | '\t' | '\n' | '\r' -> true
            | _ -> false)
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some got when got = c -> advance st
  | Some got -> parse_error "expected %C at offset %d, got %C" c st.pos got
  | None -> parse_error "expected %C at offset %d, got end of input" c st.pos

let expect_literal st lit value =
  let n = String.length lit in
  if st.pos + n <= String.length st.src
     && String.sub st.src st.pos n = lit
  then begin
    st.pos <- st.pos + n;
    value
  end
  else parse_error "invalid literal at offset %d" st.pos

(* encode a Unicode scalar value as UTF-8 *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then
    parse_error "truncated \\u escape at offset %d" st.pos;
  let h = String.sub st.src st.pos 4 in
  st.pos <- st.pos + 4;
  match int_of_string_opt ("0x" ^ h) with
  | Some v -> v
  | None -> parse_error "bad \\u escape %S" h

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> parse_error "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
       | None -> parse_error "unterminated escape"
       | Some c ->
         advance st;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            let u = parse_hex4 st in
            (* surrogate pair *)
            if u >= 0xD800 && u <= 0xDBFF
               && st.pos + 1 < String.length st.src
               && st.src.[st.pos] = '\\'
               && st.src.[st.pos + 1] = 'u'
            then begin
              st.pos <- st.pos + 2;
              let lo = parse_hex4 st in
              if lo >= 0xDC00 && lo <= 0xDFFF then
                add_utf8 buf
                  (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
              else begin
                add_utf8 buf u;
                add_utf8 buf lo
              end
            end
            else add_utf8 buf u
          | c -> parse_error "bad escape \\%c" c));
      loop ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

(* Strict JSON number grammar: an optional minus, then "0" or a nonzero
   digit followed by digits, then optional fraction and exponent parts.
   The old scanner grabbed any run of number-ish characters and handed it
   to OCaml's lenient [float_of_string], accepting non-JSON forms such as
   "+1", "1.e5", ".5" or "01" that other tools then choke on. *)
let parse_number st =
  let start = st.pos in
  let n = String.length st.src in
  let digit () =
    st.pos < n && match st.src.[st.pos] with '0' .. '9' -> true | _ -> false
  in
  let digits1 what =
    if not (digit ()) then
      parse_error "expected digit in %s at offset %d" what st.pos;
    while digit () do advance st done
  in
  if st.pos < n && st.src.[st.pos] = '-' then advance st;
  (* integer part: a single 0, or a nonzero digit followed by more *)
  if not (digit ()) then
    parse_error "expected digit in number at offset %d" st.pos;
  if st.src.[st.pos] = '0' then advance st else digits1 "number";
  if digit () then
    parse_error "leading zero in number at offset %d" start;
  let is_float = ref false in
  if st.pos < n && st.src.[st.pos] = '.' then begin
    is_float := true;
    advance st;
    digits1 "fraction"
  end;
  if st.pos < n && (st.src.[st.pos] = 'e' || st.src.[st.pos] = 'E') then begin
    is_float := true;
    advance st;
    if st.pos < n && (st.src.[st.pos] = '+' || st.src.[st.pos] = '-') then
      advance st;
    digits1 "exponent"
  end;
  let s = String.sub st.src start (st.pos - start) in
  (* a literal beyond the float range ("1e999") has no finite value; read
     as [Float infinity] it would print back as the "inf" sentinel string,
     so it is refused rather than silently changing type *)
  let float_of s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Float f
    | Some _ -> parse_error "number %S out of range at offset %d" s start
    | None -> parse_error "bad number %S at offset %d" s start
  in
  if !is_float then float_of s
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None ->
      (* integer too wide for 63 bits: keep the value as a float *)
      float_of s

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_error "unexpected end of input"
  | Some 'n' -> expect_literal st "null" Null
  | Some 't' -> expect_literal st "true" (Bool true)
  | Some 'f' -> expect_literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [] in
      let rec loop () =
        items := parse_value st :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          loop ()
        | Some ']' -> advance st
        | _ -> parse_error "expected ',' or ']' at offset %d" st.pos
      in
      loop ();
      List (List.rev !items)
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec loop () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          loop ()
        | Some '}' -> advance st
        | _ -> parse_error "expected ',' or '}' at offset %d" st.pos
      in
      loop ();
      Obj (List.rev !fields)
    end
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> parse_error "unexpected character %C at offset %d" c st.pos

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

let of_string_exn s =
  match of_string s with
  | Ok v -> v
  | Error msg -> failwith ("Json.of_string: " ^ msg)

(* --- accessors ----------------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function
  | Float v -> Some v
  | Int i -> Some (float_of_int i)
  (* the non-finite sentinels produced by [float_repr] *)
  | String "nan" -> Some Float.nan
  | String "inf" -> Some infinity
  | String "-inf" -> Some neg_infinity
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let keys = function Obj fields -> List.map fst fields | _ -> []
