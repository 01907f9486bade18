module T = Netlist.Types
module K = Celllib.Kind

type estimate = {
  prob : float array;
  density : float array;
}

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

(* Two-input composition rules; n-input gates are folded pairwise which is
   exact for trees under the independence assumption. *)
let and_pd (pa, da) (pb, db) =
  (pa *. pb, clamp01 ((pb *. da) +. (pa *. db)))

let or_pd (pa, da) (pb, db) =
  (pa +. pb -. (pa *. pb),
   clamp01 (((1.0 -. pb) *. da) +. ((1.0 -. pa) *. db)))

let not_pd (p, d) = (1.0 -. p, d)

let xor_pd (pa, da) (pb, db) =
  (pa +. pb -. (2.0 *. pa *. pb), clamp01 (da +. db))

let gate_pd kind ins =
  match kind, ins with
  | K.Inv, [| a |] -> not_pd a
  | K.Buf, [| a |] -> a
  | K.Nand2, [| a; b |] -> not_pd (and_pd a b)
  | K.Nand3, [| a; b; c |] -> not_pd (and_pd (and_pd a b) c)
  | K.Nor2, [| a; b |] -> not_pd (or_pd a b)
  | K.Nor3, [| a; b; c |] -> not_pd (or_pd (or_pd a b) c)
  | K.And2, [| a; b |] -> and_pd a b
  | K.And3, [| a; b; c |] -> and_pd (and_pd a b) c
  | K.Or2, [| a; b |] -> or_pd a b
  | K.Or3, [| a; b; c |] -> or_pd (or_pd a b) c
  | K.Xor2, [| a; b |] -> xor_pd a b
  | K.Xnor2, [| a; b |] -> not_pd (xor_pd a b)
  | K.Aoi21, [| a; b; c |] -> not_pd (or_pd (and_pd a b) c)
  | K.Oai21, [| a; b; c |] -> not_pd (and_pd (or_pd a b) c)
  | K.Mux2, [| (pa, da); (pb, db); (ps, ds) |] ->
    (* y = a*(1-s) + b*s; dy/da = not s, dy/db = s, dy/ds = a xor b *)
    let p = (pa *. (1.0 -. ps)) +. (pb *. ps) in
    let pxor = pa +. pb -. (2.0 *. pa *. pb) in
    (p, clamp01 (((1.0 -. ps) *. da) +. (ps *. db) +. (pxor *. ds)))
  | (K.Dff | K.Filler _), _ ->
    invalid_arg "Density.gate_pd: non-combinational kind"
  | _ -> invalid_arg "Density.gate_pd: arity mismatch"

let propagate nl ~input_density ?(iterations = 8) () =
  let n = T.num_nets nl in
  let prob = Array.make n 0.5 in
  let density = Array.make n 0.0 in
  T.iter_nets nl ~f:(fun nid net ->
      match net.T.driver with
      | T.Constant v ->
        prob.(nid) <- (if v then 1.0 else 0.0);
        density.(nid) <- 0.0
      | T.Primary_input k ->
        prob.(nid) <- 0.5;
        density.(nid) <- clamp01 (input_density k)
      | T.Cell_output _ -> ());
  (* Evaluate combinational cells in netlist (construction) order, which the
     builder emits topologically within a pass; sequential feedback is
     resolved by repeating the sweep. *)
  for _ = 1 to iterations do
    (* flip-flop outputs inherit their D statistics (cycle-based: Q toggles
       exactly when consecutive D samples differ) *)
    T.iter_cells nl ~f:(fun _ c ->
        if Celllib.Kind.is_sequential c.T.kind then begin
          prob.(c.T.output) <- prob.(c.T.inputs.(0));
          density.(c.T.output) <- density.(c.T.inputs.(0))
        end);
    T.iter_cells nl ~f:(fun _ c ->
        if not (Celllib.Kind.is_sequential c.T.kind) then begin
          let ins =
            Array.map (fun nid -> (prob.(nid), density.(nid))) c.T.inputs
          in
          let p, d = gate_pd c.T.kind ins in
          prob.(c.T.output) <- p;
          density.(c.T.output) <- d
        end)
  done;
  { prob; density }

let of_workload nl workload =
  let probs = Workload.input_probabilities workload nl in
  propagate nl ~input_density:(Array.get probs) ()
