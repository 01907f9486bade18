(* The parser fuzz properties' mutation: up to three byte flips,
   truncations or insertions of a valid input. An insertion adds one
   random byte or one of [inserts], fragments chosen to reach the
   parser's error paths (stray punctuation, an out-of-range number, a
   duplicate field). *)
let gen ~inserts text =
  let open QCheck.Gen in
  let mutate s =
    let n = String.length s in
    let* at = int_bound n in
    let at' = min at (n - 1) in
    oneof
      [ (let+ x = int_range 1 255 in
         if n = 0 then s
         else
           String.mapi
             (fun i c -> if i = at' then Char.chr (Char.code c lxor x) else c)
             s);
        return (String.sub s 0 at);
        (let+ ins = oneof [ map (String.make 1) char; oneofl inserts ] in
         String.sub s 0 at ^ ins ^ String.sub s at (n - at)) ]
  in
  let* steps = int_bound 3 in
  let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
  go steps text
