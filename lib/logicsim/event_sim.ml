module T = Netlist.Types

type t = {
  nl : T.t;
  table : Compiled.t;
  sinks_start : int array;        (* per net: offset of its sinks in [sinks] *)
  sinks : int array;              (* table slot of each sink; -1 = flip-flop *)
  values : int array;             (* per net, 0 or 1 *)
  staged_inputs : bool array;     (* per primary input *)
  dff_state : int array;          (* per flip-flop of [table] *)
  toggle_count : int array;       (* per net, glitches included *)
  ones_count : int array;
  mutable n_cycles : int;
  mutable n_events : int;         (* sinks reached across all waves *)
  mutable settle_waves : int;
  (* scratch wave state, sized once *)
  seen : int array;               (* per slot: last wave it was evaluated in *)
  mutable wave_id : int;
  mutable wave : int array;       (* nets that switched in this wave *)
  mutable next : int array;       (* nets switching in the next wave *)
  next_value : int array;         (* their new values *)
}

let create nl =
  let table = Compiled.create nl in
  let n_nets = T.num_nets nl in
  let slot = Array.make (T.num_cells nl) (-1) in
  Array.iteri (fun i cid -> slot.(cid) <- i) table.Compiled.order;
  let sinks_start = Array.make (n_nets + 1) 0 in
  T.iter_nets nl ~f:(fun nid n ->
      sinks_start.(nid + 1) <- sinks_start.(nid) + Array.length n.T.sinks);
  let sinks = Array.make sinks_start.(n_nets) (-1) in
  T.iter_nets nl ~f:(fun nid n ->
      Array.iteri
        (fun j (cid, _pin) -> sinks.(sinks_start.(nid) + j) <- slot.(cid))
        n.T.sinks);
  (* settled once so the initial state is consistent: transitions during
     this pseudo-reset are not counted *)
  { nl;
    table;
    sinks_start;
    sinks;
    values = Compiled.settled_values table nl;
    staged_inputs = Array.make (T.num_primary_inputs nl) false;
    dff_state = Array.make (Array.length table.Compiled.dff_q) 0;
    toggle_count = Array.make n_nets 0;
    ones_count = Array.make n_nets 0;
    n_cycles = 0;
    n_events = 0;
    settle_waves = 0;
    seen = Array.make (Array.length table.Compiled.order) (-1);
    wave_id = 0;
    wave = Array.make n_nets 0;
    next = Array.make n_nets 0;
    next_value = Array.make n_nets 0 }

let netlist t = t.nl
let set_input t k v = t.staged_inputs.(k) <- v
let input_value t k = t.staged_inputs.(k)
let cycles t = t.n_cycles
let events t = t.n_events
let value t nid = t.values.(nid) = 1
let toggles t nid = t.toggle_count.(nid)
let ones t nid = t.ones_count.(nid)

let reset_counters t =
  Array.fill t.toggle_count 0 (Array.length t.toggle_count) 0;
  Array.fill t.ones_count 0 (Array.length t.ones_count) 0;
  t.n_cycles <- 0;
  t.n_events <- 0

let switch t nid v =
  t.values.(nid) <- v;
  t.toggle_count.(nid) <- t.toggle_count.(nid) + 1

(* Wave 0 entry: net [nid] takes value [v]; [n] nets are queued so far. *)
let release t nid v n =
  if t.values.(nid) = v then n
  else begin
    switch t nid v;
    t.wave.(n) <- nid;
    n + 1
  end

(* One wave: the [n] nets in [t.wave] just switched; every combinational
   gate sinking one of them is re-evaluated once, and outputs that differ
   switch together in the next wave (unit gate delay). Flip-flop sinks
   count as events but are not evaluated. Returns the next wave's size. *)
let propagate_wave t n =
  let c = t.table in
  t.wave_id <- t.wave_id + 1;
  let m = ref 0 in
  for i = 0 to n - 1 do
    let nid = t.wave.(i) in
    for j = t.sinks_start.(nid) to t.sinks_start.(nid + 1) - 1 do
      let s = t.sinks.(j) in
      if s < 0 then t.n_events <- t.n_events + 1
      else if t.seen.(s) <> t.wave_id then begin
        t.seen.(s) <- t.wave_id;
        t.n_events <- t.n_events + 1;
        let v = Compiled.eval c t.values s in
        let out = c.Compiled.outs.(s) in
        if v <> t.values.(out) then begin
          t.next.(!m) <- out;
          t.next_value.(!m) <- v;
          incr m
        end
      end
    done
  done;
  for i = 0 to !m - 1 do
    switch t t.next.(i) t.next_value.(i)
  done;
  let wave = t.wave in
  t.wave <- t.next;
  t.next <- wave;
  !m

let step t =
  let c = t.table in
  (* wave 0: flip-flop outputs and primary inputs release their new values *)
  let n = ref 0 in
  for i = 0 to Array.length c.Compiled.dff_q - 1 do
    n := release t c.Compiled.dff_q.(i) t.dff_state.(i) !n
  done;
  let pis = t.nl.T.primary_inputs in
  for k = 0 to Array.length pis - 1 do
    n := release t pis.(k) (Bool.to_int t.staged_inputs.(k)) !n
  done;
  let waves = ref 0 in
  let cap = T.num_cells t.nl + 2 in
  while !n > 0 do
    incr waves;
    if !waves > cap then failwith "Event_sim.step: failed to settle";
    n := propagate_wave t !n
  done;
  t.settle_waves <- !waves;
  (* capture *)
  for i = 0 to Array.length c.Compiled.dff_d - 1 do
    t.dff_state.(i) <- t.values.(c.Compiled.dff_d.(i))
  done;
  for nid = 0 to Array.length t.values - 1 do
    t.ones_count.(nid) <- t.ones_count.(nid) + t.values.(nid)
  done;
  t.n_cycles <- t.n_cycles + 1

let last_settle_waves t = t.settle_waves

let measure t workload rng ~warmup ~cycles =
  if cycles <= 0 then invalid_arg "Event_sim.measure: cycles <= 0";
  Obs.Trace.with_span "sim.event.measure" @@ fun () ->
  let probs = Workload.input_probabilities workload t.nl in
  let flip k = set_input t k (not (input_value t k)) in
  let run cycles =
    for _ = 1 to cycles do
      Workload.flip_inputs probs rng ~flip;
      step t
    done
  in
  run warmup;
  reset_counters t;
  run cycles;
  Obs.Metrics.count "sim.event.cycles" ~by:cycles;
  Obs.Metrics.count "sim.event.events" ~by:t.n_events;
  Obs.Metrics.observe "sim.event.events_per_cycle"
    (float_of_int t.n_events /. float_of_int cycles);
  let n = T.num_nets t.nl in
  let fc = float_of_int cycles in
  { Activity.measured_cycles = cycles;
    toggle_rate = Array.init n (fun nid -> float_of_int t.toggle_count.(nid) /. fc);
    static_prob = Array.init n (fun nid -> float_of_int t.ones_count.(nid) /. fc) }
