module T = Netlist.Types

type t = {
  nl : T.t;
  table : Compiled.t;
  values : int array;           (* per net, 0 or 1 *)
  staged_inputs : bool array;   (* per primary input *)
  dff_state : int array;        (* per flip-flop of [table], 0 or 1 *)
  toggle_count : int array;     (* per net *)
  ones_count : int array;       (* per net *)
  mutable n_cycles : int;
}

let create nl =
  let table = Compiled.create nl in
  (* settled so cycle 1 does not count pseudo-reset transitions *)
  { nl;
    table;
    values = Compiled.settled_values table nl;
    staged_inputs = Array.make (T.num_primary_inputs nl) false;
    dff_state = Array.make (Array.length table.Compiled.dff_q) 0;
    toggle_count = Array.make (T.num_nets nl) 0;
    ones_count = Array.make (T.num_nets nl) 0;
    n_cycles = 0 }

let netlist t = t.nl

let set_input t k v = t.staged_inputs.(k) <- v
let input_value t k = t.staged_inputs.(k)

(* Branch-free: a net's toggle count grows by [old xor new]. *)
let update t nid v =
  t.toggle_count.(nid) <- t.toggle_count.(nid) + (t.values.(nid) lxor v);
  t.values.(nid) <- v

let step t =
  let c = t.table in
  (* 1. flip-flop Q nets present the state captured last cycle *)
  for i = 0 to Array.length c.Compiled.dff_q - 1 do
    update t c.Compiled.dff_q.(i) t.dff_state.(i)
  done;
  (* 2. primary inputs take their staged values *)
  let pis = t.nl.T.primary_inputs in
  for k = 0 to Array.length pis - 1 do
    update t pis.(k) (Bool.to_int t.staged_inputs.(k))
  done;
  (* 3. combinational propagation in topological order *)
  for i = 0 to Array.length c.Compiled.outs - 1 do
    update t c.Compiled.outs.(i) (Compiled.eval c t.values i)
  done;
  (* 4. flip-flops capture D *)
  for i = 0 to Array.length c.Compiled.dff_d - 1 do
    t.dff_state.(i) <- t.values.(c.Compiled.dff_d.(i))
  done;
  (* 5. sample static probabilities *)
  for nid = 0 to Array.length t.values - 1 do
    t.ones_count.(nid) <- t.ones_count.(nid) + t.values.(nid)
  done;
  t.n_cycles <- t.n_cycles + 1

let cycles t = t.n_cycles
let value t nid = t.values.(nid) = 1
let toggles t nid = t.toggle_count.(nid)
let ones t nid = t.ones_count.(nid)

let reset_counters t =
  Array.fill t.toggle_count 0 (Array.length t.toggle_count) 0;
  Array.fill t.ones_count 0 (Array.length t.ones_count) 0;
  t.n_cycles <- 0
