type t = {
  n : int;
  l : float array;  (* lower-triangular factor, row-major *)
}

(* Standard Cholesky: A = L L^T, in-place on a dense copy. *)
let of_stencil m =
  Obs.Trace.with_span "thermal.dense.factorize" @@ fun () ->
  let n = Stencil.dim m in
  let a = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    Stencil.iter_row m i ~f:(fun j v -> a.((i * n) + j) <- v)
  done;
  for k = 0 to n - 1 do
    let akk = ref a.((k * n) + k) in
    for p = 0 to k - 1 do
      akk := !akk -. (a.((k * n) + p) *. a.((k * n) + p))
    done;
    if !akk <= 0.0 then failwith "Dense.of_stencil: not positive definite";
    let lkk = sqrt !akk in
    a.((k * n) + k) <- lkk;
    for i = k + 1 to n - 1 do
      let s = ref a.((i * n) + k) in
      for p = 0 to k - 1 do
        s := !s -. (a.((i * n) + p) *. a.((k * n) + p))
      done;
      a.((i * n) + k) <- !s /. lkk
    done
  done;
  { n; l = a }

let solve_into t b x =
  let n = t.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Dense.solve_into: dimension mismatch";
  Array.blit b 0 x 0 n;
  (* forward substitution L y = b, y held in x *)
  for i = 0 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (t.l.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !s /. t.l.((i * n) + i)
  done;
  (* backward substitution L^T x = y, in place *)
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (t.l.((j * n) + i) *. x.(j))
    done;
    x.(i) <- !s /. t.l.((i * n) + i)
  done
