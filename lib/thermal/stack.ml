type layer = {
  layer_name : string;
  thickness_um : float;
  conductivity_w_mk : float;
}

type t = {
  layers : layer array;
  power_layer : int;
  h_top_w_m2k : float;
  h_bottom_w_m2k : float;
}

let layer layer_name thickness_um conductivity_w_mk =
  { layer_name; thickness_um; conductivity_w_mk }

(* The effective per-area sink conductance of a small die is
   h = 1 / (R_ja * A_die); for a ~0.04 mm^2 die and a 25-60 K/W package
   this lands in the 1e5..1e6 W/(m^2 K) range — far above the "heatsink
   textbook" numbers that apply to cm-scale dies. The thinned bulk keeps
   the lateral spreading length below the die width so that hotspots stay
   localized, as in the paper's Fig. 5. *)
let default_9layer = {
  layers =
    [| layer "underfill" 10.0 0.8;
       layer "metal/ILD lower" 6.0 2.2;
       layer "metal/ILD upper" 6.0 2.2;
       layer "active silicon" 5.0 120.0;
       layer "bulk silicon 1" 4.0 150.0;
       layer "bulk silicon 2" 4.0 150.0;
       layer "TIM lower" 4.0 2.0;
       layer "TIM upper" 4.0 2.0;
       layer "package lid" 10.0 30.0 |];
  power_layer = 3;
  h_top_w_m2k = 5.0e5;
  h_bottom_w_m2k = 5.0e2;
}

let with_sink t ~h_top_w_m2k = { t with h_top_w_m2k }

let num_layers t = Array.length t.layers

let total_thickness_um t =
  Array.fold_left (fun acc l -> acc +. l.thickness_um) 0.0 t.layers

let validate t =
  if Array.length t.layers = 0 then Error "empty layer stack"
  else if t.power_layer < 0 || t.power_layer >= Array.length t.layers then
    Error "power layer index out of range"
  else if Array.exists
      (fun l -> l.thickness_um <= 0.0 || l.conductivity_w_mk <= 0.0)
      t.layers
  then Error "non-positive layer thickness or conductivity"
  else if t.h_top_w_m2k <= 0.0 && t.h_bottom_w_m2k <= 0.0 then
    Error "no heat removal path (neither face grounded)"
  else Ok ()
