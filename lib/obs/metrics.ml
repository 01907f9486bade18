type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  last : float;
  samples : float list;
  dropped : int;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram

type series = {
  name : string;
  labels : (string * string) list;
  value : value;
}

(* mutable in-registry representation *)
type cell =
  | C_counter of int ref
  | C_gauge of float ref
  | C_hist of hist_state

(* Samples beyond the cap are kept via reservoir sampling (Algorithm R):
   after n observations each one is retained with probability cap/n, so
   the retained set is an unbiased sample of the whole stream and the
   percentiles computed from it do not suffer the first-N truncation
   bias (a stream whose values drift would otherwise report only its
   opening regime). The RNG is a splitmix64 stream seeded from the
   series key (metric name + labels), so runs are reproducible per
   series and independent of registration order. *)
and hist_state = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_last : float;
  h_samples : float array;  (* reservoir; first h_len entries live *)
  mutable h_len : int;
  mutable h_rng : int64;
}

let max_samples = 4096

let enabled_flag = ref true
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* --- labels -------------------------------------------------------------- *)

(* Labels are canonicalized (sorted by key) on every recording call so
   [("a","1");("b","2")] and [("b","2");("a","1")] address the same
   series. Duplicate label keys would render an invalid Prometheus
   exposition, so they are rejected at the recording site. *)
let canon_labels = function
  | [] -> []
  | labels ->
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
    let rec check = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then
          invalid_arg
            (Printf.sprintf "Obs.Metrics: duplicate label key %S" a);
        check rest
      | _ -> ()
    in
    check sorted;
    sorted

(* Prometheus label-value escaping: backslash, double-quote and newline
   are the three characters the text exposition format escapes. The same
   rendering doubles as the series key in {!to_json} output. *)
let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '\\' -> Buffer.add_string buf "\\\\"
       | '"' -> Buffer.add_string buf "\\\""
       | '\n' -> Buffer.add_string buf "\\n"
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape_label_value s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec go i =
    if i >= n then Some (Buffer.contents buf)
    else if s.[i] = '\\' then
      if i + 1 >= n then None
      else begin
        (match s.[i + 1] with
         | '\\' -> Buffer.add_char buf '\\'
         | '"' -> Buffer.add_char buf '"'
         | 'n' -> Buffer.add_char buf '\n'
         | _ -> raise Exit);
        go (i + 2)
      end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  try go 0 with Exit -> None

let series_key name labels =
  match labels with
  | [] -> name
  | labels ->
    let parts =
      List.map
        (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
        labels
    in
    name ^ "{" ^ String.concat "," parts ^ "}"

(* The registry is shared across domains (solver chunks, parallel sweep
   points); one mutex around every access keeps recording race-free.
   Recording stays per-event (never per-element), so the lock is cold.
   Keys are (name, canonical labels); a separate name -> kind table
   enforces one metric type per name across all label sets, which the
   Prometheus exporter's one-TYPE-line-per-name output relies on. *)
let registry_mutex = Mutex.create ()
let registry : (string * (string * string) list, cell) Hashtbl.t =
  Hashtbl.create 64
let name_kinds : (string, string) Hashtbl.t = Hashtbl.create 64

let locked f = Mutex.protect registry_mutex f

let reset () =
  locked (fun () ->
      Hashtbl.reset registry;
      Hashtbl.reset name_kinds)

let check_kind name kind =
  match Hashtbl.find_opt name_kinds name with
  | None -> Hashtbl.replace name_kinds name kind
  | Some k when k = kind -> ()
  | Some k ->
    invalid_arg
      (Printf.sprintf
         "Obs.Metrics: %S already registered as a %s (expected %s)" name k
         kind)

(* --- deterministic per-series RNG ---------------------------------------- *)

let fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
       h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
           0x100000001B3L)
    s;
  !h

(* one splitmix64 step: returns (output, next state) *)
let splitmix64 state =
  let open Int64 in
  let state = add state 0x9E3779B97F4A7C15L in
  let z = state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  (logxor z (shift_right_logical z 31), state)

(* uniform-enough draw in [0, n): the modulo bias over a 63-bit range is
   immaterial for sampling decisions *)
let rand_below state n =
  let out, state = splitmix64 state in
  (Int64.to_int (Int64.rem (Int64.shift_right_logical out 1)
                   (Int64.of_int n)),
   state)

(* ------------------------------------------------------------------------ *)

let count ?(by = 1) ?(labels = []) name =
  if !enabled_flag then begin
    let labels = canon_labels labels in
    locked (fun () ->
        match Hashtbl.find_opt registry (name, labels) with
        | Some (C_counter r) -> r := !r + by
        | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %S already registered with another type \
                (expected counter)" name)
        | None ->
          check_kind name "counter";
          Hashtbl.replace registry (name, labels) (C_counter (ref by)))
  end

let gauge ?(labels = []) name v =
  if !enabled_flag then begin
    let labels = canon_labels labels in
    locked (fun () ->
        match Hashtbl.find_opt registry (name, labels) with
        | Some (C_gauge r) -> r := v
        | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %S already registered with another type \
                (expected gauge)" name)
        | None ->
          check_kind name "gauge";
          Hashtbl.replace registry (name, labels) (C_gauge (ref v)))
  end

let observe ?(labels = []) name v =
  if !enabled_flag then begin
    let labels = canon_labels labels in
    locked (fun () ->
        match Hashtbl.find_opt registry (name, labels) with
        | Some (C_hist h) ->
          h.h_count <- h.h_count + 1;
          h.h_sum <- h.h_sum +. v;
          if v < h.h_min then h.h_min <- v;
          if v > h.h_max then h.h_max <- v;
          h.h_last <- v;
          if h.h_len < max_samples then begin
            h.h_samples.(h.h_len) <- v;
            h.h_len <- h.h_len + 1
          end
          else begin
            let j, rng = rand_below h.h_rng h.h_count in
            h.h_rng <- rng;
            if j < max_samples then h.h_samples.(j) <- v
          end
        | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %S already registered with another type \
                (expected histogram)" name)
        | None ->
          check_kind name "histogram";
          let h =
            { h_count = 1; h_sum = v; h_min = v; h_max = v; h_last = v;
              h_samples = Array.make max_samples 0.0; h_len = 1;
              h_rng = fnv1a64 (series_key name labels) }
          in
          h.h_samples.(0) <- v;
          Hashtbl.replace registry (name, labels) (C_hist h))
  end

let freeze_hist h =
  { count = h.h_count; sum = h.h_sum; min = h.h_min; max = h.h_max;
    last = h.h_last;
    samples = Array.to_list (Array.sub h.h_samples 0 h.h_len);
    dropped = h.h_count - h.h_len }

(* A read under a name registered as another kind is a wiring mistake
   (e.g. reading a histogram as a counter), never an absent series. *)
let read kind name labels f =
  let labels = canon_labels labels in
  locked (fun () ->
      match Hashtbl.find_opt name_kinds name with
      | Some k when k <> kind ->
        invalid_arg
          (Printf.sprintf "Obs.Metrics: %S is a %s, read as a %s" name k kind)
      | _ -> Option.bind (Hashtbl.find_opt registry (name, labels)) f)

let counter_value ?(labels = []) name =
  read "counter" name labels (function C_counter r -> Some !r | _ -> None)

let gauge_value ?(labels = []) name =
  read "gauge" name labels (function C_gauge r -> Some !r | _ -> None)

let histogram ?(labels = []) name =
  read "histogram" name labels (function
    | C_hist h -> Some (freeze_hist h)
    | _ -> None)

let mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

(* Nearest-rank percentile over the retained reservoir. *)
let percentile h q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Obs.Metrics.percentile: q not in [0,1]";
  match h.samples with
  | [] -> Float.nan
  | samples ->
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let snapshot () =
  locked (fun () ->
      Hashtbl.fold
        (fun (name, labels) cell acc ->
           let value =
             match cell with
             | C_counter r -> Counter !r
             | C_gauge r -> Gauge !r
             | C_hist h -> Histogram (freeze_hist h)
           in
           { name; labels; value } :: acc)
        registry [])
  |> List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels))

let json_of_value ~samples v =
  let fields =
    match v with
    | Counter n ->
      [ ("type", Json.String "counter"); ("value", Json.Int n) ]
    | Gauge g ->
      [ ("type", Json.String "gauge"); ("value", Json.Float g) ]
    | Histogram h ->
      [ ("type", Json.String "histogram");
        ("count", Json.Int h.count);
        ("sum", Json.Float h.sum);
        ("min", Json.Float h.min);
        ("max", Json.Float h.max);
        ("mean", Json.Float (mean h));
        ("p50", Json.Float (percentile h 0.50));
        ("p90", Json.Float (percentile h 0.90));
        ("p99", Json.Float (percentile h 0.99));
        ("last", Json.Float h.last) ]
      @ (if samples then
           [ ("samples",
              Json.List (List.map (fun s -> Json.Float s) h.samples)) ]
         else [])
      @ [ ("dropped", Json.Int h.dropped) ]
  in
  Json.Obj fields

let registry_json ~samples () =
  Json.Obj
    (List.map
       (fun s -> (series_key s.name s.labels, json_of_value ~samples s.value))
       (snapshot ()))

let to_json () = registry_json ~samples:true ()
let summary_json () = registry_json ~samples:false ()
