module T = Netlist.Types

type t = {
  order : T.cell_id array;
  tables : int array;
  pins : T.net_id array;
  outs : T.net_id array;
  dff_q : T.net_id array;
  dff_d : T.net_id array;
}

(* Topological order of combinational cells (flip-flop outputs and primary
   inputs are sources). The netlist builder already guarantees acyclicity. *)
let topo_order (nl : T.t) =
  let n = T.num_cells nl in
  let comb_driver = Array.make (T.num_nets nl) (-1) in
  T.iter_cells nl ~f:(fun cid c ->
      if not (Celllib.Kind.is_sequential c.T.kind) then
        comb_driver.(c.T.output) <- cid);
  let indeg = Array.make n 0 in
  let succs = Array.make n [] in
  T.iter_cells nl ~f:(fun cid c ->
      Array.iter
        (fun nid ->
           let src = comb_driver.(nid) in
           if src >= 0 then begin
             succs.(src) <- cid :: succs.(src);
             indeg.(cid) <- indeg.(cid) + 1
           end)
        c.T.inputs);
  let queue = Queue.create () in
  Array.iteri (fun cid d -> if d = 0 then Queue.add cid queue) indeg;
  let order = ref [] in
  while not (Queue.is_empty queue) do
    let cid = Queue.pop queue in
    if not (Celllib.Kind.is_sequential (T.cell nl cid).T.kind) then
      order := cid :: !order;
    List.iter
      (fun s ->
         indeg.(s) <- indeg.(s) - 1;
         if indeg.(s) = 0 then Queue.add s queue)
      succs.(cid)
  done;
  Array.of_list (List.rev !order)

(* Bit [a + 2b + 4c] is [Kind.eval3 kind a b c]: evaluating a slot is then
   a shift and a mask, with no branch on the kind. *)
let truth_table kind =
  let bit idx k = (idx lsr k) land 1 = 1 in
  let table = ref 0 in
  for idx = 0 to 7 do
    if Celllib.Kind.eval3 kind (bit idx 0) (bit idx 1) (bit idx 2) then
      table := !table lor (1 lsl idx)
  done;
  !table

let create nl =
  let order = topo_order nl in
  let cell i = T.cell nl order.(i) in
  let pins =
    Array.init (3 * Array.length order) (fun p ->
        let c = cell (p / 3) in
        if p mod 3 < Array.length c.T.inputs then c.T.inputs.(p mod 3)
        else c.T.output)
  in
  let dffs =
    List.filter
      (fun c -> Celllib.Kind.is_sequential c.T.kind)
      (Array.to_list nl.T.cells)
  in
  { order;
    tables =
      Array.init (Array.length order) (fun i -> truth_table (cell i).T.kind);
    pins;
    outs = Array.init (Array.length order) (fun i -> (cell i).T.output);
    dff_q = Array.of_list (List.map (fun c -> c.T.output) dffs);
    dff_d = Array.of_list (List.map (fun c -> c.T.inputs.(0)) dffs) }

let eval t values i =
  let p = 3 * i in
  let idx =
    values.(t.pins.(p)) lor (values.(t.pins.(p + 1)) lsl 1)
    lor (values.(t.pins.(p + 2)) lsl 2)
  in
  (t.tables.(i) lsr idx) land 1

let settled_values t nl =
  let values = Array.make (T.num_nets nl) 0 in
  T.iter_nets nl ~f:(fun nid n ->
      match n.T.driver with
      | T.Constant v -> values.(nid) <- Bool.to_int v
      | T.Primary_input _ | T.Cell_output _ -> ());
  Array.iteri (fun i nid -> values.(nid) <- eval t values i) t.outs;
  values
