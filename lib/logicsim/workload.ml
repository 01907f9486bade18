type t = {
  default : float;
  hot : (int * float) list;
}

let check p =
  if p < 0.0 || p > 1.0 then invalid_arg "Workload: probability out of range"

let uniform p =
  check p;
  { default = p; hot = [] }

let make ~default ~hot =
  check default;
  List.iter (fun (_, p) -> check p) hot;
  { default; hot }

let scattered_hotspots ~hot_units =
  make ~default:0.02 ~hot:(List.map (fun u -> (u, 0.5)) hot_units)

let concentrated_hotspot ~hot_unit =
  make ~default:0.02 ~hot:[ (hot_unit, 0.5) ]

let activity t ~tag =
  match List.assoc_opt tag t.hot with
  | Some p -> p
  | None -> t.default

let input_probabilities t nl =
  Array.map (fun tag -> activity t ~tag) nl.Netlist.Types.pi_tags

let flip_inputs probs rng ~flip =
  for k = 0 to Array.length probs - 1 do
    if Geo.Rng.bernoulli rng probs.(k) then flip k
  done

let flip sim k = Sim.set_input sim k (not (Sim.input_value sim k))

let drive t sim rng =
  flip_inputs (input_probabilities t (Sim.netlist sim)) rng ~flip:(flip sim)

let run t sim rng ~cycles =
  let probs = input_probabilities t (Sim.netlist sim) and flip = flip sim in
  for _ = 1 to cycles do
    flip_inputs probs rng ~flip;
    Sim.step sim
  done
