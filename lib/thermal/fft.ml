(* Split-array complex FFT and the real DCT-II built on it. Two
   algorithms cover every complex length:

   - lengths whose prime factors are 2 and 5 run a mixed-radix
     Cooley-Tukey in Stockham autosort form (decimation in frequency,
     radices 2 and 5): every stage reads one buffer pair and writes the
     other in natural order, so there is no digit-reversal pass, and one
     table of the n roots e^{-2 pi i t / n} serves every stage;
   - every other length runs Bluestein's chirp-z transform, which
     re-expresses the DFT as a circular convolution of the power-of-two
     length next_pow2(2n-1) and runs that convolution on the same engine.

   The DCT-II of real rows rides on the complex engine through Makhoul's
   even/odd reorder, one row per complex transform.

   Plans are memoized per length in a mutex-protected registry: Blur
   calls these from pool workers, and a plan is immutable once published
   so a benign double-build under contention is safe. *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* --- plans ---------------------------------------------------------------- *)

(* A 2-5-smooth length: its stage radices (product n, twos first) and
   the roots e^{-2 pi i t / n}, t < n. *)
type smooth = {
  s_n : int;
  s_radices : int array;
  s_cos : float array;
  s_sin : float array;
}

(* Bluestein data for length n: the chirp c_k = e^{-i pi k^2 / n} and the
   forward transform (length m = next_pow2(2n-1)) of the wrapped
   conjugate chirp b, with b_0 = 1, b_k = b_{m-k} = e^{+i pi k^2 / n}. *)
type chirp = {
  z_conv : smooth; (* the convolution length m *)
  z_chirp_re : float array; (* length n *)
  z_chirp_im : float array;
  z_b_re : float array; (* FFT(b), length m *)
  z_b_im : float array;
}

type plan = Smooth of smooth | Chirp of chirp

(* A DCT-II of length n: the complex plan and the quarter-wave rotation
   e^{-i pi k / 2n}, k < n. *)
type dct = {
  d_plan : plan;
  d_cos : float array;
  d_sin : float array;
}

let tables_mutex = Mutex.create ()
let plan_registry : (int, plan) Hashtbl.t = Hashtbl.create 8
let dct_registry : (int, dct) Hashtbl.t = Hashtbl.create 8

let memo registry build n =
  match
    Mutex.protect tables_mutex (fun () -> Hashtbl.find_opt registry n)
  with
  | Some t -> t
  | None ->
    (* build outside the lock (cheap, immutable); first publisher wins *)
    let t = build n in
    Mutex.protect tables_mutex (fun () ->
        match Hashtbl.find_opt registry n with
        | Some t -> t
        | None -> Hashtbl.replace registry n t; t)

let radices n =
  let rec go n acc =
    if n = 1 then Some (Array.of_list (List.rev acc))
    else if n mod 2 = 0 then go (n / 2) (2 :: acc)
    else if n mod 5 = 0 then go (n / 5) (5 :: acc)
    else None
  in
  go n []

let build_smooth n s_radices =
  let angle t = -2.0 *. Float.pi *. float_of_int t /. float_of_int n in
  { s_n = n; s_radices;
    s_cos = Array.init n (fun t -> cos (angle t));
    s_sin = Array.init n (fun t -> sin (angle t)) }

(* --- the mixed-radix engine ----------------------------------------------- *)

(* One Stockham stage of radix p. The source holds [s] interleaved
   subsequences of length [m * p]; element j + r m of subsequence q sits
   at q + s (j + r m). With a_r those elements, output u of the length-p
   DFT of the a_r, twisted by w^{j u} (w the subsequence's root), lands at
   q + s (p j + u): [s p] interleaved subsequences of length [m] whose
   DFTs, read in order, are the full DFT. That root is the table's
   t = s j u entry, and s j u < s m p = n. *)

let radix2 sm ~s ~m sr si dr di =
  let c = sm.s_cos and sn = sm.s_sin in
  for j = 0 to m - 1 do
    let w1r = c.(s * j) and w1i = sn.(s * j) in
    for q = 0 to s - 1 do
      let i0 = q + (s * j) in
      let i1 = i0 + (s * m) in
      let ar = sr.(i0) and ai = si.(i0) in
      let br = sr.(i1) and bi = si.(i1) in
      let o = q + (s * 2 * j) in
      dr.(o) <- ar +. br;
      di.(o) <- ai +. bi;
      let xr = ar -. br and xi = ai -. bi in
      dr.(o + s) <- (xr *. w1r) -. (xi *. w1i);
      di.(o + s) <- (xr *. w1i) +. (xi *. w1r)
    done
  done

let c5_1 = cos (2.0 *. Float.pi /. 5.0)
let c5_2 = cos (4.0 *. Float.pi /. 5.0)
let s5_1 = sin (2.0 *. Float.pi /. 5.0)
let s5_2 = sin (4.0 *. Float.pi /. 5.0)

let radix5 sm ~s ~m sr si dr di =
  let c = sm.s_cos and sn = sm.s_sin in
  for j = 0 to m - 1 do
    let w1r = c.(s * j) and w1i = sn.(s * j) in
    let w2r = c.(2 * s * j) and w2i = sn.(2 * s * j) in
    let w3r = c.(3 * s * j) and w3i = sn.(3 * s * j) in
    let w4r = c.(4 * s * j) and w4i = sn.(4 * s * j) in
    for q = 0 to s - 1 do
      let i0 = q + (s * j) in
      let i1 = i0 + (s * m) in
      let i2 = i1 + (s * m) in
      let i3 = i2 + (s * m) in
      let i4 = i3 + (s * m) in
      let a0r = sr.(i0) and a0i = si.(i0) in
      let b1r = sr.(i1) +. sr.(i4) and b1i = si.(i1) +. si.(i4) in
      let d1r = sr.(i1) -. sr.(i4) and d1i = si.(i1) -. si.(i4) in
      let b2r = sr.(i2) +. sr.(i3) and b2i = si.(i2) +. si.(i3) in
      let d2r = sr.(i2) -. sr.(i3) and d2i = si.(i2) -. si.(i3) in
      let o = q + (s * 5 * j) in
      dr.(o) <- a0r +. b1r +. b2r;
      di.(o) <- a0i +. b1i +. b2i;
      (* y1,4 = a0 + c1 b1 + c2 b2 -/+ i (s1 d1 + s2 d2),
         y2,3 = a0 + c2 b1 + c1 b2 -/+ i (s2 d1 - s1 d2) *)
      let p1r = a0r +. (c5_1 *. b1r) +. (c5_2 *. b2r) in
      let p1i = a0i +. (c5_1 *. b1i) +. (c5_2 *. b2i) in
      let q1r = (s5_1 *. d1r) +. (s5_2 *. d2r) in
      let q1i = (s5_1 *. d1i) +. (s5_2 *. d2i) in
      let p2r = a0r +. (c5_2 *. b1r) +. (c5_1 *. b2r) in
      let p2i = a0i +. (c5_2 *. b1i) +. (c5_1 *. b2i) in
      let q2r = (s5_2 *. d1r) -. (s5_1 *. d2r) in
      let q2i = (s5_2 *. d1i) -. (s5_1 *. d2i) in
      let y1r = p1r +. q1i and y1i = p1i -. q1r in
      let y4r = p1r -. q1i and y4i = p1i +. q1r in
      let y2r = p2r +. q2i and y2i = p2i -. q2r in
      let y3r = p2r -. q2i and y3i = p2i +. q2r in
      dr.(o + s) <- (y1r *. w1r) -. (y1i *. w1i);
      di.(o + s) <- (y1r *. w1i) +. (y1i *. w1r);
      dr.(o + (2 * s)) <- (y2r *. w2r) -. (y2i *. w2i);
      di.(o + (2 * s)) <- (y2r *. w2i) +. (y2i *. w2r);
      dr.(o + (3 * s)) <- (y3r *. w3r) -. (y3i *. w3i);
      di.(o + (3 * s)) <- (y3r *. w3i) +. (y3i *. w3r);
      dr.(o + (4 * s)) <- (y4r *. w4r) -. (y4i *. w4i);
      di.(o + (4 * s)) <- (y4r *. w4i) +. (y4i *. w4r)
    done
  done

(* In-place forward DFT of the first [sm.s_n] entries of [re]/[im],
   ping-ponging with the work pair [wr]/[wi] (at least as long). *)
let run_smooth sm ~re ~im ~wr ~wi =
  let n = sm.s_n in
  let s = ref 1 and in_work = ref false in
  for k = 0 to Array.length sm.s_radices - 1 do
    let p = sm.s_radices.(k) in
    let m = n / (!s * p) in
    let stage = if p = 2 then radix2 else radix5 in
    if !in_work then stage sm ~s:!s ~m wr wi re im
    else stage sm ~s:!s ~m re im wr wi;
    in_work := not !in_work;
    s := !s * p
  done;
  if !in_work then begin
    Array.blit wr 0 re 0 n;
    Array.blit wi 0 im 0 n
  end

(* --- Bluestein ------------------------------------------------------------ *)

(* The chirp phase is pi * k^2 / n; computing it as
   pi * ((k*k) mod 2n) / n keeps the argument of cos/sin small so the
   table stays accurate at large k (k^2 overflows double precision's
   exact-integer range long before k does modular arithmetic's). *)
let chirp_phase ~n k =
  let m2 = 2 * n in
  Float.pi *. float_of_int (k * k mod m2) /. float_of_int n

let build_chirp n =
  let m = next_pow2 ((2 * n) - 1) in
  let z_conv =
    match radices m with
    | Some r -> build_smooth m r
    | None -> assert false (* a power of two *)
  in
  let z_chirp_re = Array.make n 0.0 in
  let z_chirp_im = Array.make n 0.0 in
  let z_b_re = Array.make m 0.0 in
  let z_b_im = Array.make m 0.0 in
  for k = 0 to n - 1 do
    let a = chirp_phase ~n k in
    (* forward chirp e^{-i a} *)
    z_chirp_re.(k) <- cos a;
    z_chirp_im.(k) <- -.sin a;
    (* wrapped conjugate chirp e^{+i a} at k and m-k *)
    z_b_re.(k) <- cos a;
    z_b_im.(k) <- sin a;
    if k > 0 then begin
      z_b_re.(m - k) <- cos a;
      z_b_im.(m - k) <- sin a
    end
  done;
  run_smooth z_conv ~re:z_b_re ~im:z_b_im ~wr:(Array.make m 0.0)
    ~wi:(Array.make m 0.0);
  { z_conv; z_chirp_re; z_chirp_im; z_b_re; z_b_im }

(* The convolution buffers [ar]/[ai] and the engine's work pair [wr]/[wi]
   are all of the padded length m. *)
let run_chirp z ~n ~re ~im ~ar ~ai ~wr ~wi =
  let m = z.z_conv.s_n in
  Array.fill ar 0 m 0.0;
  Array.fill ai 0 m 0.0;
  for k = 0 to n - 1 do
    let cr = z.z_chirp_re.(k) and ci = z.z_chirp_im.(k) in
    ar.(k) <- (re.(k) *. cr) -. (im.(k) *. ci);
    ai.(k) <- (re.(k) *. ci) +. (im.(k) *. cr)
  done;
  run_smooth z.z_conv ~re:ar ~im:ai ~wr ~wi;
  (* pointwise multiply by FFT(b), conjugated for the inverse transform *)
  for k = 0 to m - 1 do
    let br = z.z_b_re.(k) and bi = z.z_b_im.(k) in
    let xr = ar.(k) and xi = ai.(k) in
    ar.(k) <- (xr *. br) -. (xi *. bi);
    ai.(k) <- -.((xr *. bi) +. (xi *. br))
  done;
  run_smooth z.z_conv ~re:ar ~im:ai ~wr ~wi;
  let inv_m = 1.0 /. float_of_int m in
  for k = 0 to n - 1 do
    let xr = ar.(k) *. inv_m and xi = -.(ai.(k) *. inv_m) in
    let cr = z.z_chirp_re.(k) and ci = z.z_chirp_im.(k) in
    re.(k) <- (xr *. cr) -. (xi *. ci);
    im.(k) <- (xr *. ci) +. (xi *. cr)
  done

(* --- dispatch ------------------------------------------------------------- *)

let plan_of n =
  memo plan_registry
    (fun n ->
       match radices n with
       | Some r -> Smooth (build_smooth n r)
       | None -> Chirp (build_chirp n))
    n

let counter_of n = function
  | Smooth _ when is_pow2 n -> "thermal.fft.radix2"
  | Smooth _ -> "thermal.fft.mixed_radix"
  | Chirp _ -> "thermal.fft.bluestein"

(* Scratch for repeated transforms of one plan: the engine's work pair,
   plus Bluestein's convolution pair. *)
type scratch = {
  w_re : float array;
  w_im : float array;
  c_re : float array;
  c_im : float array;
}

let scratch_of n = function
  | Smooth _ ->
    { w_re = Array.make n 0.0; w_im = Array.make n 0.0;
      c_re = [||]; c_im = [||] }
  | Chirp z ->
    let m = z.z_conv.s_n in
    { w_re = Array.make m 0.0; w_im = Array.make m 0.0;
      c_re = Array.make m 0.0; c_im = Array.make m 0.0 }

let run plan sc ~n ~re ~im =
  match plan with
  | Smooth sm -> run_smooth sm ~re ~im ~wr:sc.w_re ~wi:sc.w_im
  | Chirp z ->
    run_chirp z ~n ~re ~im ~ar:sc.c_re ~ai:sc.c_im ~wr:sc.w_re ~wi:sc.w_im

let check_args ~re ~im =
  let n = Array.length re in
  if n = 0 then invalid_arg "Fft: empty input";
  if Array.length im <> n then invalid_arg "Fft: re/im length mismatch";
  n

let fft ~re ~im =
  let n = check_args ~re ~im in
  if n > 1 then begin
    let plan = plan_of n in
    Obs.Metrics.count (counter_of n plan);
    run plan (scratch_of n plan) ~n ~re ~im
  end

let ifft ~re ~im =
  let n = check_args ~re ~im in
  for k = 0 to n - 1 do im.(k) <- -.im.(k) done;
  fft ~re ~im;
  let inv_n = 1.0 /. float_of_int n in
  for k = 0 to n - 1 do
    re.(k) <- re.(k) *. inv_n;
    im.(k) <- -.(im.(k) *. inv_n)
  done

(* --- real DCT-II over rows ------------------------------------------------ *)

let dct_of n =
  memo dct_registry
    (fun n ->
       let angle k = Float.pi *. float_of_int k /. float_of_int (2 * n) in
       { d_plan = plan_of n;
         d_cos = Array.init n (fun k -> cos (angle k));
         d_sin = Array.init n (fun k -> sin (angle k)) })
    n

(* Run [body] on every row of an n-point DCT batch, sharing one complex
   buffer pair and one engine scratch across the whole batch. *)
let dct_batch name ~n ~rows a body =
  if n <= 0 || rows < 0 then invalid_arg (name ^ ": non-positive length");
  if Array.length a <> n * rows then
    invalid_arg (name ^ ": array length is not n * rows");
  (* a length-1 DCT-II is the identity *)
  if n > 1 && rows > 0 then begin
    let d = dct_of n in
    let re = Array.make n 0.0 and im = Array.make n 0.0 in
    let sc = scratch_of n d.d_plan in
    for r = 0 to rows - 1 do
      body d sc ~re ~im ~o:(r * n)
    done;
    Obs.Metrics.count (counter_of n d.d_plan) ~by:rows
  end

(* Makhoul: with v_j = x_{2j} and v_{n-1-j} = x_{2j+1}, the DCT-II is
   X_k = Re(e^{-i pi k / 2n} V_k), V = DFT(v). *)
let dct2_rows ~n ~rows a =
  dct_batch "Fft.dct2_rows" ~n ~rows a
  @@ fun d sc ~re ~im ~o ->
  for j = 0 to (n - 1) / 2 do
    re.(j) <- a.(o + (2 * j))
  done;
  for j = 0 to (n / 2) - 1 do
    re.(n - 1 - j) <- a.(o + (2 * j) + 1)
  done;
  Array.fill im 0 n 0.0;
  run d.d_plan sc ~n ~re ~im;
  for k = 0 to n - 1 do
    a.(o + k) <- (d.d_cos.(k) *. re.(k)) +. (d.d_sin.(k) *. im.(k))
  done

(* The exact inverse: X_k - i X_{n-k} = e^{-i pi k / 2n} V_k (X_n = 0),
   so V_k = e^{i pi k / 2n} (X_k - i X_{n-k}), v = IDFT(V), and the
   reorder is undone. v is real, so the inverse DFT runs as a forward
   transform of conj V whose real part is n v. *)
let idct2_rows ~n ~rows a =
  dct_batch "Fft.idct2_rows" ~n ~rows a
  @@ fun d sc ~re ~im ~o ->
  for k = 0 to n - 1 do
    let c = d.d_cos.(k) and s = d.d_sin.(k) in
    let x = a.(o + k) and x' = if k = 0 then 0.0 else a.(o + n - k) in
    re.(k) <- (c *. x) +. (s *. x');
    im.(k) <- (c *. x') -. (s *. x)
  done;
  run d.d_plan sc ~n ~re ~im;
  let inv_n = 1.0 /. float_of_int n in
  for j = 0 to (n - 1) / 2 do
    a.(o + (2 * j)) <- re.(j) *. inv_n
  done;
  for j = 0 to (n / 2) - 1 do
    a.(o + (2 * j) + 1) <- re.(n - 1 - j) *. inv_n
  done
