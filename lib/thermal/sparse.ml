type builder = {
  n : int;
  mutable rows_ : int array;
  mutable cols_ : int array;
  mutable vals_ : float array;
  mutable len : int;
}

let builder ~n =
  if n <= 0 then invalid_arg "Sparse.builder: n <= 0";
  { n; rows_ = Array.make 64 0; cols_ = Array.make 64 0;
    vals_ = Array.make 64 0.0; len = 0 }

let resize b cap =
  let grow a zero =
    let a' = Array.make cap zero in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.rows_ <- grow b.rows_ 0;
  b.cols_ <- grow b.cols_ 0;
  b.vals_ <- grow b.vals_ 0.0

let reserve b cap = if cap > Array.length b.rows_ then resize b cap

let add b i j v =
  if i < 0 || i >= b.n || j < 0 || j >= b.n then
    invalid_arg "Sparse.add: index out of range";
  if b.len = Array.length b.rows_ then resize b (2 * b.len);
  b.rows_.(b.len) <- i;
  b.cols_.(b.len) <- j;
  b.vals_.(b.len) <- v;
  b.len <- b.len + 1

type t = {
  dim : int;
  row_ptr : int array;   (* length dim+1 *)
  col_idx : int array;
  values : float array;
}

(* Triplets -> CSR with duplicate summation: counting sort by row, then an
   in-row sort by column and a merge of equal columns, all on flat arrays
   (assembly speed matters: the 14400-node mesh is rebuilt per experiment
   point). *)
let of_builder b =
  let counts = Array.make (b.n + 1) 0 in
  for k = 0 to b.len - 1 do
    counts.(b.rows_.(k) + 1) <- counts.(b.rows_.(k) + 1) + 1
  done;
  for i = 1 to b.n do counts.(i) <- counts.(i) + counts.(i - 1) done;
  let order = Array.make (max 1 b.len) 0 in
  let cursor = Array.copy counts in
  for k = 0 to b.len - 1 do
    let r = b.rows_.(k) in
    order.(cursor.(r)) <- k;
    cursor.(r) <- cursor.(r) + 1
  done;
  let row_ptr = Array.make (b.n + 1) 0 in
  (* worst case: no duplicates at all *)
  let out_cols = Array.make (max 1 b.len) 0 in
  let out_vals = Array.make (max 1 b.len) 0.0 in
  let total = ref 0 in
  (* the per-row sort only ever holds one row's triplets *)
  let widest = ref 1 in
  for i = 0 to b.n - 1 do
    widest := max !widest (counts.(i + 1) - counts.(i))
  done;
  let cols_scratch = Array.make !widest 0 in
  let vals_scratch = Array.make !widest 0.0 in
  for i = 0 to b.n - 1 do
    row_ptr.(i) <- !total;
    let lo = counts.(i) and hi = counts.(i + 1) in
    let len = hi - lo in
    (* insertion sort of the (few) row entries by column *)
    for k = 0 to len - 1 do
      let t = order.(lo + k) in
      cols_scratch.(k) <- b.cols_.(t);
      vals_scratch.(k) <- b.vals_.(t)
    done;
    for k = 1 to len - 1 do
      let c = cols_scratch.(k) and v = vals_scratch.(k) in
      let j = ref (k - 1) in
      while !j >= 0 && cols_scratch.(!j) > c do
        cols_scratch.(!j + 1) <- cols_scratch.(!j);
        vals_scratch.(!j + 1) <- vals_scratch.(!j);
        decr j
      done;
      cols_scratch.(!j + 1) <- c;
      vals_scratch.(!j + 1) <- v
    done;
    let k = ref 0 in
    while !k < len do
      let c = cols_scratch.(!k) in
      let v = ref vals_scratch.(!k) in
      incr k;
      while !k < len && cols_scratch.(!k) = c do
        v := !v +. vals_scratch.(!k);
        incr k
      done;
      out_cols.(!total) <- c;
      out_vals.(!total) <- !v;
      incr total
    done
  done;
  row_ptr.(b.n) <- !total;
  { dim = b.n;
    col_idx = Array.sub out_cols 0 !total;
    values = Array.sub out_vals 0 !total;
    row_ptr }

let dim t = t.dim
let nnz t = t.row_ptr.(t.dim)

let mul t x y =
  if Array.length x <> t.dim || Array.length y <> t.dim then
    invalid_arg "Sparse.mul: dimension mismatch";
  for i = 0 to t.dim - 1 do
    let acc = ref 0.0 in
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      acc := !acc +. (t.values.(k) *. x.(t.col_idx.(k)))
    done;
    y.(i) <- !acc
  done

(* z <- M^-1 r for the SSOR splitting M = (D/w + L) ((2-w)/w D)^-1
   (D/w + U): a forward sweep, a diagonal scaling, a backward sweep. The
   sweeps are inherently sequential (each row consumes earlier/later
   rows), but they are O(nnz) — cheap next to the SpMV they save. *)
let ssor_apply t ~diag ~omega r z =
  let n = t.dim in
  if Array.length r <> n || Array.length z <> n then
    invalid_arg "Sparse.ssor_apply: dimension mismatch";
  (* forward: (D/w + L) u = r, u accumulated in z *)
  for i = 0 to n - 1 do
    let acc = ref 0.0 in
    let k = ref t.row_ptr.(i) in
    let stop = t.row_ptr.(i + 1) in
    while !k < stop && t.col_idx.(!k) < i do
      acc := !acc +. (t.values.(!k) *. z.(t.col_idx.(!k)));
      incr k
    done;
    z.(i) <- (r.(i) -. !acc) *. omega /. diag.(i)
  done;
  (* scale by ((2-w)/w D) *)
  let s = (2.0 -. omega) /. omega in
  for i = 0 to n - 1 do
    z.(i) <- z.(i) *. diag.(i) *. s
  done;
  (* backward: (D/w + U) z = u, in place (rows below i are final) *)
  for i = n - 1 downto 0 do
    let acc = ref 0.0 in
    let k = ref (t.row_ptr.(i + 1) - 1) in
    let stop = t.row_ptr.(i) in
    while !k >= stop && t.col_idx.(!k) > i do
      acc := !acc +. (t.values.(!k) *. z.(t.col_idx.(!k)));
      decr k
    done;
    z.(i) <- (z.(i) -. !acc) *. omega /. diag.(i)
  done

let diagonal t =
  let d = Array.make t.dim 0.0 in
  for i = 0 to t.dim - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      if t.col_idx.(k) = i then d.(i) <- d.(i) +. t.values.(k)
    done
  done;
  d

let row_sum_abs t i =
  let acc = ref 0.0 in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    acc := !acc +. Float.abs t.values.(k)
  done;
  !acc

let get t i j =
  let v = ref 0.0 in
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    if t.col_idx.(k) = j then v := t.values.(k)
  done;
  !v

let iter_row t i ~f =
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(k) t.values.(k)
  done
