module T = Netlist.Types

type result = {
  side : bool array;
  cut_nets : int;
  area_a : float;
}

(* Local view: nets restricted to the subset, as arrays of subset indices.
   A net qualifies when it has >= 2 subset pins (driver or sink), counting
   each cell once. *)
let local_nets nl ~cells ~max_net_pins =
  let n_cells = Array.length cells in
  let local_of_cell = Hashtbl.create (2 * n_cells) in
  Array.iteri (fun i cid -> Hashtbl.replace local_of_cell cid i) cells;
  let net_members = Hashtbl.create 256 in
  let touch nid i =
    let prev = Option.value (Hashtbl.find_opt net_members nid) ~default:[] in
    if not (List.mem i prev) then Hashtbl.replace net_members nid (i :: prev)
  in
  Array.iteri
    (fun i cid ->
       let c = T.cell nl cid in
       touch c.T.output i;
       Array.iter (fun nid -> touch nid i) c.T.inputs)
    cells;
  let nets = ref [] in
  Hashtbl.iter
    (fun _ members ->
       let len = List.length members in
       if len >= 2 && len <= max_net_pins then
         nets := Array.of_list members :: !nets)
    net_members;
  Array.of_list !nets

let cut_of_nets nets side =
  Array.fold_left
    (fun acc members ->
       let a = Array.exists (fun i -> not side.(i)) members in
       let b = Array.exists (fun i -> side.(i)) members in
       if a && b then acc + 1 else acc)
    0 nets

let cut_size nl ~cells ~side =
  let nets = local_nets nl ~cells ~max_net_pins:max_int in
  cut_of_nets nets side

(* Gain-bucket FM pass machinery. Gains are bounded by the max number of
   qualifying nets on a cell, so buckets are a plain array indexed by
   gain + offset with intrusive doubly-linked lists. *)
module Buckets = struct
  type t = {
    offset : int;
    heads : int array;          (* per gain bucket: first cell or -1 *)
    next : int array;           (* per cell *)
    prev : int array;           (* per cell *)
    gain : int array;           (* per cell *)
    mutable max_gain : int;     (* highest non-empty bucket (approx) *)
  }

  let create ~n_cells ~max_degree =
    let span = (2 * max_degree) + 1 in
    { offset = max_degree;
      heads = Array.make span (-1);
      next = Array.make n_cells (-1);
      prev = Array.make n_cells (-1);
      gain = Array.make n_cells 0;
      max_gain = -max_degree - 1 }

  let insert t i g =
    t.gain.(i) <- g;
    let b = g + t.offset in
    t.next.(i) <- t.heads.(b);
    t.prev.(i) <- -1;
    if t.heads.(b) >= 0 then t.prev.(t.heads.(b)) <- i;
    t.heads.(b) <- i;
    if g > t.max_gain then t.max_gain <- g

  let remove t i =
    let b = t.gain.(i) + t.offset in
    if t.prev.(i) >= 0 then t.next.(t.prev.(i)) <- t.next.(i)
    else t.heads.(b) <- t.next.(i);
    if t.next.(i) >= 0 then t.prev.(t.next.(i)) <- t.prev.(i);
    t.next.(i) <- -1;
    t.prev.(i) <- -1

  let update t i g = remove t i; insert t i g

  (* Find the best unlocked cell whose move keeps balance; linear scan down
     the buckets. [accept] filters by balance. *)
  let pop_best t ~accept =
    let rec scan_bucket g =
      if g + t.offset < 0 then None
      else begin
        let rec walk i =
          if i < 0 then None
          else if accept i then Some i
          else walk t.next.(i)
        in
        match walk t.heads.(g + t.offset) with
        | Some i -> remove t i; Some i
        | None -> scan_bucket (g - 1)
      end
    in
    (* refresh max_gain lazily *)
    while t.max_gain + t.offset >= 0 && t.heads.(t.max_gain + t.offset) < 0 do
      t.max_gain <- t.max_gain - 1
    done;
    scan_bucket t.max_gain
end

let bipartition ?(max_passes = 4) ?(max_net_pins = 64) nl ~cells ~areas
    ~target_a ~tolerance =
  let n = Array.length cells in
  assert (Array.length areas = n);
  if n = 0 then { side = [||]; cut_nets = 0; area_a = 0.0 }
  else begin
    let nets = local_nets nl ~cells ~max_net_pins in
    let total_area = Array.fold_left ( +. ) 0.0 areas in
    let target_area = target_a *. total_area in
    (* Initial split: prefix of the given order up to the target area. *)
    let side = Array.make n true in
    let acc = ref 0.0 in
    (try
       for i = 0 to n - 1 do
         if !acc >= target_area then raise Exit;
         side.(i) <- false;
         acc := !acc +. areas.(i)
       done
     with Exit -> ());
    let area_a = ref !acc in
    (* net membership per cell for incremental updates *)
    let cell_nets = Array.make n [] in
    Array.iteri
      (fun ni members ->
         Array.iter (fun i -> cell_nets.(i) <- ni :: cell_nets.(i)) members)
      nets;
    let max_degree =
      Array.fold_left (fun m l -> max m (List.length l)) 1 cell_nets
    in
    let n_nets = Array.length nets in
    let count_a = Array.make n_nets 0 in
    let count_b = Array.make n_nets 0 in
    let recount () =
      Array.iteri
        (fun ni members ->
           let a = ref 0 and b = ref 0 in
           Array.iter (fun i -> if side.(i) then incr b else incr a) members;
           count_a.(ni) <- !a;
           count_b.(ni) <- !b)
        nets
    in
    let gain_of i =
      (* +1 for each net that would become uncut, -1 for each newly cut *)
      List.fold_left
        (fun g ni ->
           let from_cnt = if side.(i) then count_b.(ni) else count_a.(ni) in
           let to_cnt = if side.(i) then count_a.(ni) else count_b.(ni) in
           let g = if from_cnt = 1 then g + 1 else g in
           if to_cnt = 0 then g - 1 else g)
        0 cell_nets.(i)
    in
    let balance_ok_after i =
      let na =
        if side.(i) then !area_a +. areas.(i) else !area_a -. areas.(i)
      in
      Float.abs (na -. target_area) <= tolerance
    in
    let improved = ref true in
    let passes = ref 0 in
    while !improved && !passes < max_passes do
      improved := false;
      incr passes;
      recount ();
      let buckets = Buckets.create ~n_cells:n ~max_degree in
      for i = 0 to n - 1 do
        Buckets.insert buckets i (gain_of i)
      done;
      let locked = Array.make n false in
      let moves = ref [] in
      let cum_gain = ref 0 in
      let best_gain = ref 0 in
      let best_len = ref 0 in
      let len = ref 0 in
      let continue_loop = ref true in
      while !continue_loop do
        match
          Buckets.pop_best buckets
            ~accept:(fun i -> (not locked.(i)) && balance_ok_after i)
        with
        | None -> continue_loop := false
        | Some i ->
          locked.(i) <- true;
          cum_gain := !cum_gain + buckets.Buckets.gain.(i);
          (* apply the move *)
          let from_b = side.(i) in
          List.iter
            (fun ni ->
               if from_b then begin
                 count_b.(ni) <- count_b.(ni) - 1;
                 count_a.(ni) <- count_a.(ni) + 1
               end else begin
                 count_a.(ni) <- count_a.(ni) - 1;
                 count_b.(ni) <- count_b.(ni) + 1
               end)
            cell_nets.(i);
          side.(i) <- not from_b;
          area_a := (if from_b then !area_a +. areas.(i)
                     else !area_a -. areas.(i));
          moves := i :: !moves;
          incr len;
          if !cum_gain > !best_gain then begin
            best_gain := !cum_gain;
            best_len := !len
          end;
          (* refresh neighbour gains *)
          let touched = Hashtbl.create 16 in
          List.iter
            (fun ni ->
               Array.iter
                 (fun j ->
                    if (not locked.(j)) && not (Hashtbl.mem touched j) then begin
                      Hashtbl.replace touched j ();
                      Buckets.update buckets j (gain_of j)
                    end)
                 nets.(ni))
            cell_nets.(i)
      done;
      (* roll back past the best prefix *)
      let all_moves = Array.of_list (List.rev !moves) in
      for k = Array.length all_moves - 1 downto !best_len do
        let i = all_moves.(k) in
        let from_b = side.(i) in
        side.(i) <- not from_b;
        area_a := (if from_b then !area_a +. areas.(i)
                   else !area_a -. areas.(i))
      done;
      if !best_gain > 0 then improved := true
    done;
    recount ();
    { side; cut_nets = cut_of_nets nets side; area_a = !area_a }
  end
