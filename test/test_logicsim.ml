(* Tests for the cycle-based simulator, workloads, activity measurement and
   the probabilistic transition-density engine. *)

module B = Netlist.Builder
module K = Celllib.Kind

let test_comb_propagation_one_step () =
  let b = B.create () in
  let a = B.add_input b in
  let n1 = B.add_gate b K.Inv [| a |] in
  let n2 = B.add_gate b K.Inv [| n1 |] in
  let n3 = B.add_gate b K.Inv [| n2 |] in
  B.mark_output b n3;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Sim.set_input sim 0 true;
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "inv chain in one cycle" false
    (Logicsim.Sim.value sim n3);
  Logicsim.Sim.set_input sim 0 false;
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "flips back" true (Logicsim.Sim.value sim n3)

let test_dff_one_cycle_delay () =
  let b = B.create () in
  let a = B.add_input b in
  let q = B.add_dff b ~d:a in
  B.mark_output b q;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Sim.set_input sim 0 true;
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "q still 0 in capture cycle" false
    (Logicsim.Sim.value sim q);
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "q is 1 next cycle" true (Logicsim.Sim.value sim q)

let test_dff_pipeline_depth () =
  let b = B.create () in
  let a = B.add_input b in
  let q1 = B.add_dff b ~d:a in
  let q2 = B.add_dff b ~d:q1 in
  let q3 = B.add_dff b ~d:q2 in
  B.mark_output b q3;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Sim.set_input sim 0 true;
  Logicsim.Sim.step sim;
  Logicsim.Sim.step sim;
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "3-stage pipe not yet" false
    (Logicsim.Sim.value sim q3);
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "arrives cycle 4" true (Logicsim.Sim.value sim q3)

let test_constants_hold () =
  let b = B.create () in
  let one = B.add_constant b true in
  let zero = B.add_constant b false in
  let n = B.add_gate b K.And2 [| one; zero |] in
  B.mark_output b n;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Sim.step sim;
  Alcotest.(check bool) "one" true (Logicsim.Sim.value sim one);
  Alcotest.(check bool) "zero" false (Logicsim.Sim.value sim zero);
  Alcotest.(check int) "constants never toggle" 0
    (Logicsim.Sim.toggles sim one)

let test_toggle_counting () =
  let b = B.create () in
  let a = B.add_input b in
  let n = B.add_gate b K.Buf [| a |] in
  B.mark_output b n;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  for k = 1 to 6 do
    Logicsim.Sim.set_input sim 0 (k mod 2 = 1);
    Logicsim.Sim.step sim
  done;
  Alcotest.(check int) "pi toggles" 6 (Logicsim.Sim.toggles sim 0);
  Alcotest.(check int) "buf follows" 6 (Logicsim.Sim.toggles sim n);
  Alcotest.(check int) "cycles" 6 (Logicsim.Sim.cycles sim);
  Logicsim.Sim.reset_counters sim;
  Alcotest.(check int) "reset toggles" 0 (Logicsim.Sim.toggles sim 0);
  Alcotest.(check int) "reset cycles" 0 (Logicsim.Sim.cycles sim);
  Alcotest.(check bool) "state survives reset" true
    (Logicsim.Sim.value sim 0 = Logicsim.Sim.value sim n)

let test_ones_counting () =
  let b = B.create () in
  let a = B.add_input b in
  let n = B.add_gate b K.Inv [| a |] in
  B.mark_output b n;
  let nl = B.finish b in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Sim.set_input sim 0 true;
  Logicsim.Sim.step sim;
  Logicsim.Sim.step sim;
  Logicsim.Sim.set_input sim 0 false;
  Logicsim.Sim.step sim;
  Alcotest.(check int) "pi ones" 2 (Logicsim.Sim.ones sim 0);
  Alcotest.(check int) "inv ones" 1 (Logicsim.Sim.ones sim n)

(* --- workloads ----------------------------------------------------------- *)

let test_workload_activity () =
  let w = Logicsim.Workload.make ~default:0.1 ~hot:[ (2, 0.9) ] in
  Alcotest.(check (float 1e-9)) "hot" 0.9
    (Logicsim.Workload.activity w ~tag:2);
  Alcotest.(check (float 1e-9)) "cold" 0.1
    (Logicsim.Workload.activity w ~tag:0);
  Alcotest.(check (float 1e-9)) "untagged uses default" 0.1
    (Logicsim.Workload.activity w ~tag:(-1))

let test_workload_validation () =
  (match Logicsim.Workload.uniform 1.5 with
   | _ -> Alcotest.fail "p>1 accepted"
   | exception Invalid_argument _ -> ());
  (match Logicsim.Workload.make ~default:0.5 ~hot:[ (0, -0.1) ] with
   | _ -> Alcotest.fail "p<0 accepted"
   | exception Invalid_argument _ -> ())

let test_workload_shapes () =
  let s = Logicsim.Workload.scattered_hotspots ~hot_units:[ 1; 3 ] in
  Alcotest.(check bool) "hot unit high" true
    (Logicsim.Workload.activity s ~tag:1 > 0.4);
  Alcotest.(check bool) "cold unit low" true
    (Logicsim.Workload.activity s ~tag:0 < 0.05);
  let c = Logicsim.Workload.concentrated_hotspot ~hot_unit:7 in
  Alcotest.(check bool) "concentrated hot" true
    (Logicsim.Workload.activity c ~tag:7 > 0.4)

let test_workload_zero_activity_settles () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let sim = Logicsim.Sim.create nl in
  let w = Logicsim.Workload.uniform 0.0 in
  let rng = Geo.Rng.create 1 in
  (* settle, then measure: with frozen inputs nothing may toggle *)
  Logicsim.Workload.run w sim rng ~cycles:8;
  Logicsim.Sim.reset_counters sim;
  Logicsim.Workload.run w sim rng ~cycles:20;
  let total = ref 0 in
  for nid = 0 to Netlist.Types.num_nets nl - 1 do
    total := !total + Logicsim.Sim.toggles sim nid
  done;
  Alcotest.(check int) "no toggles at zero activity" 0 !total

let test_workload_full_activity () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let sim = Logicsim.Sim.create nl in
  let w = Logicsim.Workload.uniform 1.0 in
  let rng = Geo.Rng.create 1 in
  Logicsim.Workload.run w sim rng ~cycles:10;
  Array.iter
    (fun nid ->
       Alcotest.(check int)
         (Printf.sprintf "pi %d toggles every cycle" nid)
         10
         (Logicsim.Sim.toggles sim nid))
    nl.Netlist.Types.primary_inputs

(* --- activity measurement ------------------------------------------------ *)

let test_activity_measure () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let sim = Logicsim.Sim.create nl in
  let w = Logicsim.Workload.uniform 0.4 in
  let rng = Geo.Rng.create 5 in
  let r = Logicsim.Activity.measure sim w rng ~warmup:16 ~cycles:600 in
  Alcotest.(check int) "cycles recorded" 600
    r.Logicsim.Activity.measured_cycles;
  Array.iter
    (fun rate ->
       if rate < 0.0 || rate > 1.0 then
         Alcotest.failf "toggle rate %g out of [0,1]" rate)
    r.Logicsim.Activity.toggle_rate;
  (* primary-input rates concentrate around the workload probability *)
  let pi_rates =
    Array.map
      (fun nid -> r.Logicsim.Activity.toggle_rate.(nid))
      nl.Netlist.Types.primary_inputs
  in
  let mean = Geo.Stats.mean pi_rates in
  if Float.abs (mean -. 0.4) > 0.05 then
    Alcotest.failf "mean PI rate %.3f far from 0.4" mean

let test_activity_requires_cycles () =
  let bench = Netgen.Benchmark.small () in
  let sim = Logicsim.Sim.create bench.Netgen.Benchmark.netlist in
  (match
     Logicsim.Activity.measure sim (Logicsim.Workload.uniform 0.1)
       (Geo.Rng.create 1) ~warmup:0 ~cycles:0
   with
   | _ -> Alcotest.fail "cycles=0 accepted"
   | exception Invalid_argument _ -> ())

let test_activity_constant_rate () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let r = Logicsim.Activity.of_constant_rate nl ~rate:0.25 in
  Alcotest.(check (float 1e-9)) "rate" 0.25
    r.Logicsim.Activity.toggle_rate.(0);
  Alcotest.(check int) "length" (Netlist.Types.num_nets nl)
    (Array.length r.Logicsim.Activity.toggle_rate)

(* --- density engine ------------------------------------------------------- *)

let density_of_gate kind input_densities =
  let b = B.create () in
  let pis = Array.map (fun _ -> B.add_input b) input_densities in
  let n = B.add_gate b kind pis in
  B.mark_output b n;
  let nl = B.finish b in
  let est =
    Logicsim.Density.propagate nl
      ~input_density:(fun k -> input_densities.(k)) ()
  in
  (est.Logicsim.Density.prob.(n), est.Logicsim.Density.density.(n))

let test_density_gate_formulas () =
  let p, d = density_of_gate K.And2 [| 0.2; 0.4 |] in
  Alcotest.(check (float 1e-9)) "and2 prob" 0.25 p;
  (* D = pb*Da + pa*Db with pa=pb=0.5 *)
  Alcotest.(check (float 1e-9)) "and2 density" 0.3 d;
  let p, d = density_of_gate K.Xor2 [| 0.2; 0.4 |] in
  Alcotest.(check (float 1e-9)) "xor2 prob" 0.5 p;
  Alcotest.(check (float 1e-9)) "xor2 density" 0.6 d;
  let p, d = density_of_gate K.Inv [| 0.3 |] in
  Alcotest.(check (float 1e-9)) "inv prob" 0.5 p;
  Alcotest.(check (float 1e-9)) "inv density" 0.3 d

let test_density_clamped () =
  let _, d = density_of_gate K.Xor2 [| 0.9; 0.9 |] in
  Alcotest.(check bool) "density clamped to 1" true (d <= 1.0)

let test_density_vs_simulation () =
  (* The analytical estimate should track simulation on the small benchmark
     within a loose tolerance (reconvergence causes known error). *)
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let w = Logicsim.Workload.uniform 0.3 in
  let sim = Logicsim.Sim.create nl in
  let measured =
    Logicsim.Activity.measure sim w (Geo.Rng.create 9) ~warmup:32
      ~cycles:1500
  in
  let est = Logicsim.Density.of_workload nl w in
  let err = ref 0.0 and n = ref 0 in
  Netlist.Types.iter_nets nl ~f:(fun nid _ ->
      err :=
        !err
        +. Float.abs
             (measured.Logicsim.Activity.toggle_rate.(nid)
              -. est.Logicsim.Density.density.(nid));
      incr n);
  let mae = !err /. float_of_int !n in
  (* reconvergent fan-out in the arithmetic arrays makes the independence
     assumption optimistic; 0.2 toggles/cycle MAE is the documented
     accuracy envelope of the analytical engine *)
  if mae > 0.2 then
    Alcotest.failf "density MAE %.3f too large vs simulation" mae

let test_density_constants () =
  let b = B.create () in
  let one = B.add_constant b true in
  let a = B.add_input b in
  let n = B.add_gate b K.And2 [| one; a |] in
  B.mark_output b n;
  let nl = B.finish b in
  let est = Logicsim.Density.propagate nl ~input_density:(fun _ -> 0.4) () in
  Alcotest.(check (float 1e-9)) "const prob" 1.0
    est.Logicsim.Density.prob.(one);
  Alcotest.(check (float 1e-9)) "const density" 0.0
    est.Logicsim.Density.density.(one);
  (* and with constant 1 is transparent *)
  Alcotest.(check (float 1e-9)) "through-and density" 0.4
    est.Logicsim.Density.density.(n)

(* --- event-driven engine ---------------------------------------------------- *)

(* XOR of a signal with a doubly-inverted copy of itself: statically always
   0, but under unit delay each input toggle produces a glitch pulse. *)
let glitch_circuit () =
  let b = B.create () in
  let a = B.add_input b in
  let d1 = B.add_gate b K.Inv [| a |] in
  let d2 = B.add_gate b K.Inv [| d1 |] in
  let out = B.add_gate b K.Xor2 [| a; d2 |] in
  B.mark_output b out;
  (B.finish b, out)

let test_event_sim_sees_glitches () =
  let nl, out = glitch_circuit () in
  let zsim = Logicsim.Sim.create nl in
  let esim = Logicsim.Event_sim.create nl in
  for k = 1 to 10 do
    let v = k mod 2 = 1 in
    Logicsim.Sim.set_input zsim 0 v;
    Logicsim.Event_sim.set_input esim 0 v;
    Logicsim.Sim.step zsim;
    Logicsim.Event_sim.step esim
  done;
  Alcotest.(check int) "zero-delay sees no output toggles" 0
    (Logicsim.Sim.toggles zsim out);
  (* each of the 10 input toggles produces one 2-transition glitch pulse *)
  Alcotest.(check int) "event engine counts the glitches" 20
    (Logicsim.Event_sim.toggles esim out)

let test_event_sim_settled_values_match_sim () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let zsim = Logicsim.Sim.create nl in
  let esim = Logicsim.Event_sim.create nl in
  let rng = Geo.Rng.create 17 in
  for _cycle = 1 to 40 do
    for k = 0 to Netlist.Types.num_primary_inputs nl - 1 do
      if Geo.Rng.bernoulli rng 0.4 then begin
        let v = not (Logicsim.Sim.input_value zsim k) in
        Logicsim.Sim.set_input zsim k v;
        Logicsim.Event_sim.set_input esim k v
      end
    done;
    Logicsim.Sim.step zsim;
    Logicsim.Event_sim.step esim;
    Netlist.Types.iter_nets nl ~f:(fun nid _ ->
        if Logicsim.Sim.value zsim nid
           <> Logicsim.Event_sim.value esim nid
        then
          Alcotest.failf "cycle values diverge on net %d" nid)
  done

let test_event_sim_toggles_dominate () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let zsim = Logicsim.Sim.create nl in
  let esim = Logicsim.Event_sim.create nl in
  let rng = Geo.Rng.create 23 in
  for _ = 1 to 60 do
    for k = 0 to Netlist.Types.num_primary_inputs nl - 1 do
      if Geo.Rng.bernoulli rng 0.3 then begin
        let v = not (Logicsim.Sim.input_value zsim k) in
        Logicsim.Sim.set_input zsim k v;
        Logicsim.Event_sim.set_input esim k v
      end
    done;
    Logicsim.Sim.step zsim;
    Logicsim.Event_sim.step esim
  done;
  let total_z = ref 0 and total_e = ref 0 in
  Netlist.Types.iter_nets nl ~f:(fun nid _ ->
      let z = Logicsim.Sim.toggles zsim nid in
      let e = Logicsim.Event_sim.toggles esim nid in
      if e < z then
        Alcotest.failf "net %d: event toggles %d < zero-delay %d" nid e z;
      total_z := !total_z + z;
      total_e := !total_e + e);
  Alcotest.(check bool) "arithmetic logic glitches measurably" true
    (!total_e > !total_z)

let test_event_sim_settle_depth_bounded () =
  let bench = Netgen.Benchmark.small () in
  let nl = bench.Netgen.Benchmark.netlist in
  let depth = Netlist.Stats.logic_depth nl in
  let esim = Logicsim.Event_sim.create nl in
  let w = Logicsim.Workload.uniform 0.5 in
  let rng = Geo.Rng.create 31 in
  let report = Logicsim.Event_sim.measure esim w rng ~warmup:4 ~cycles:20 in
  Alcotest.(check int) "cycles measured" 20
    report.Logicsim.Activity.measured_cycles;
  Alcotest.(check bool)
    (Printf.sprintf "settles within depth+2 waves (%d <= %d)"
       (Logicsim.Event_sim.last_settle_waves esim) (depth + 2))
    true
    (Logicsim.Event_sim.last_settle_waves esim <= depth + 2)

let test_event_sim_rates_can_exceed_one () =
  let nl, out = glitch_circuit () in
  let esim = Logicsim.Event_sim.create nl in
  let w = Logicsim.Workload.uniform 1.0 in
  let rng = Geo.Rng.create 3 in
  let report = Logicsim.Event_sim.measure esim w rng ~warmup:2 ~cycles:50 in
  Alcotest.(check bool) "glitchy net above 1 toggle/cycle" true
    (report.Logicsim.Activity.toggle_rate.(out) > 1.0)

(* --- compiled simulator vs a cell-by-cell reference ---------------------- *)

(* The cycle semantics of Sim, interpreted cell by cell with Kind.eval.
   Builder netlists list every gate after the nets it reads, so id order is
   a topological order of the combinational cells. *)
module Reference = struct
  module T = Netlist.Types

  type t = {
    nl : T.t;
    values : bool array;
    staged : bool array;
    dff_state : bool array;  (* per cell *)
    toggles : int array;
    ones : int array;
  }

  let eval_comb nl values set =
    T.iter_cells nl ~f:(fun _ c ->
        if not (K.is_sequential c.T.kind) then
          set c.T.output
            (K.eval c.T.kind (Array.map (fun n -> values.(n)) c.T.inputs)))

  let create nl =
    let values = Array.make (T.num_nets nl) false in
    T.iter_nets nl ~f:(fun nid n ->
        match n.T.driver with
        | T.Constant v -> values.(nid) <- v
        | T.Primary_input _ | T.Cell_output _ -> ());
    eval_comb nl values (fun nid v -> values.(nid) <- v);
    { nl; values;
      staged = Array.make (T.num_primary_inputs nl) false;
      dff_state = Array.make (T.num_cells nl) false;
      toggles = Array.make (T.num_nets nl) 0;
      ones = Array.make (T.num_nets nl) 0 }

  let update t nid v =
    if t.values.(nid) <> v then begin
      t.values.(nid) <- v;
      t.toggles.(nid) <- t.toggles.(nid) + 1
    end

  let step t =
    let nl = t.nl in
    T.iter_cells nl ~f:(fun cid c ->
        if K.is_sequential c.T.kind then update t c.T.output t.dff_state.(cid));
    Array.iteri (fun k nid -> update t nid t.staged.(k)) nl.T.primary_inputs;
    eval_comb nl t.values (update t);
    T.iter_cells nl ~f:(fun cid c ->
        if K.is_sequential c.T.kind then
          t.dff_state.(cid) <- t.values.(c.T.inputs.(0)));
    Array.iteri
      (fun nid v -> if v then t.ones.(nid) <- t.ones.(nid) + 1)
      t.values

  let reset_counters t =
    Array.fill t.toggles 0 (Array.length t.toggles) 0;
    Array.fill t.ones 0 (Array.length t.ones) 0
end

let comb_kinds =
  Array.of_list (List.filter (fun k -> not (K.is_sequential k)) K.all_logic)

(* One gate of every combinational kind, then random gates and plain
   flip-flops, all over earlier nets (inputs, both constants, flip-flop
   outputs), plus feedback flip-flops whose D is wired last. *)
let random_netlist st =
  let b = B.create () in
  let pool = ref [||] in
  let add nid = pool := Array.append !pool [| nid |] in
  let pick () = !pool.(Random.State.int st (Array.length !pool)) in
  let gate k =
    add (B.add_gate b k (Array.init (K.num_inputs k) (fun _ -> pick ())))
  in
  for _ = 0 to Random.State.int st 4 do add (B.add_input b) done;
  add (B.add_constant b false);
  add (B.add_constant b true);
  let connects =
    List.init (Random.State.int st 4) (fun _ ->
        let q, connect = B.add_dff_feedback b in
        add q;
        connect)
  in
  Array.iter gate comb_kinds;
  for _ = 1 to Random.State.int st 40 do
    if Random.State.int st 6 = 0 then add (B.add_dff b ~d:(pick ()))
    else gate comb_kinds.(Random.State.int st (Array.length comb_kinds))
  done;
  List.iter (fun connect -> connect (pick ())) connects;
  B.mark_output b (pick ());
  B.finish b

(* After every cycle of random stimulus (with one counter reset midway),
   Sim agrees with the reference on every net's value, toggle count and
   ones count. Event_sim agrees on values and ones, and its glitch-aware
   toggle count exceeds the zero-delay one by an even number per net. *)
let prop_sim_matches_reference =
  QCheck.Test.make ~name:"compiled Sim matches the cell-by-cell reference"
    ~count:200 QCheck.(pair int (int_range 1 40))
    (fun (seed, cycles) ->
       let st = Random.State.make [| seed |] in
       let nl = random_netlist st in
       let r = Reference.create nl in
       let sim = Logicsim.Sim.create nl in
       let esim = Logicsim.Event_sim.create nl in
       let n_nets = Netlist.Types.num_nets nl in
       let agree cycle =
         for nid = 0 to n_nets - 1 do
           let v = Logicsim.Sim.value sim nid
           and tg = Logicsim.Sim.toggles sim nid
           and etg = Logicsim.Event_sim.toggles esim nid in
           if v <> r.Reference.values.(nid)
           || tg <> r.Reference.toggles.(nid)
           || Logicsim.Sim.ones sim nid <> r.Reference.ones.(nid)
           || Logicsim.Event_sim.value esim nid <> v
           || Logicsim.Event_sim.ones esim nid <> r.Reference.ones.(nid)
           || etg < tg || (etg - tg) mod 2 <> 0
           then
             QCheck.Test.fail_reportf
               "cycle %d, net %d: value %b/%b, toggles %d/%d/%d" cycle nid v
               r.Reference.values.(nid) tg r.Reference.toggles.(nid) etg
         done
       in
       agree 0;
       for cycle = 1 to cycles do
         for k = 0 to Netlist.Types.num_primary_inputs nl - 1 do
           let v = Random.State.bool st in
           r.Reference.staged.(k) <- v;
           Logicsim.Sim.set_input sim k v;
           Logicsim.Event_sim.set_input esim k v
         done;
         Reference.step r;
         Logicsim.Sim.step sim;
         Logicsim.Event_sim.step esim;
         if cycle = cycles / 2 then begin
           Reference.reset_counters r;
           Logicsim.Sim.reset_counters sim;
           Logicsim.Event_sim.reset_counters esim
         end;
         agree cycle
       done;
       true)

let test_step_allocates_nothing () =
  let nl = (Netgen.Benchmark.nine_unit ()).Netgen.Benchmark.netlist in
  let sim = Logicsim.Sim.create nl in
  Logicsim.Workload.run (Logicsim.Workload.uniform 0.3) sim
    (Geo.Rng.create 3) ~cycles:4;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    Logicsim.Sim.step sim
  done;
  Alcotest.(check (float 0.0)) "minor words over 100 steps" 0.0
    (Gc.minor_words () -. before)

let report_digest (r : Logicsim.Activity.report) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (r.Logicsim.Activity.toggle_rate, r.Logicsim.Activity.static_prob)
          []))

(* Pinned before the simulator was compiled to a flat table: the activity
   Flow.prepare measures for test set 1 at seed 42 (every power map, plan
   and peak downstream depends on it bit for bit). *)
let test_activity_digest_pinned () =
  let nl = (Netgen.Benchmark.nine_unit ()).Netgen.Benchmark.netlist in
  let workload =
    Logicsim.Workload.scattered_hotspots ~hot_units:[ 0; 4; 6; 8 ]
  in
  let rng = Geo.Rng.split (Geo.Rng.create 42) in
  let r =
    Logicsim.Activity.measure (Logicsim.Sim.create nl) workload rng
      ~warmup:64 ~cycles:1000
  in
  Alcotest.(check string) "activity digest" "dba1efd7a5118e8ab3971b5b45c8125b"
    (report_digest r)

(* Pinned likewise for the event-driven engine, with its work counters. *)
let test_event_sim_digest_pinned () =
  let nl = (Netgen.Benchmark.small ()).Netgen.Benchmark.netlist in
  let esim = Logicsim.Event_sim.create nl in
  let w = Logicsim.Workload.make ~default:0.1 ~hot:[ (0, 0.5) ] in
  let r =
    Logicsim.Event_sim.measure esim w (Geo.Rng.create 7) ~warmup:16
      ~cycles:400
  in
  Alcotest.(check string) "activity digest" "6bca7a6b608fea39262fda295c5d4f8d"
    (report_digest r);
  Alcotest.(check int) "events" 49407 (Logicsim.Event_sim.events esim);
  Alcotest.(check int) "last settle waves" 8
    (Logicsim.Event_sim.last_settle_waves esim)

let () =
  Alcotest.run "logicsim"
    [ ("sim",
       [ Alcotest.test_case "comb one step" `Quick
           test_comb_propagation_one_step;
         Alcotest.test_case "dff delay" `Quick test_dff_one_cycle_delay;
         Alcotest.test_case "pipeline depth" `Quick test_dff_pipeline_depth;
         Alcotest.test_case "constants hold" `Quick test_constants_hold;
         Alcotest.test_case "toggle counting" `Quick test_toggle_counting;
         Alcotest.test_case "ones counting" `Quick test_ones_counting;
         QCheck_alcotest.to_alcotest prop_sim_matches_reference;
         Alcotest.test_case "step allocates nothing" `Quick
           test_step_allocates_nothing ]);
      ("workload",
       [ Alcotest.test_case "activity mapping" `Quick test_workload_activity;
         Alcotest.test_case "validation" `Quick test_workload_validation;
         Alcotest.test_case "paper shapes" `Quick test_workload_shapes;
         Alcotest.test_case "zero activity settles" `Quick
           test_workload_zero_activity_settles;
         Alcotest.test_case "full activity" `Quick
           test_workload_full_activity ]);
      ("activity",
       [ Alcotest.test_case "measure" `Quick test_activity_measure;
         Alcotest.test_case "cycles required" `Quick
           test_activity_requires_cycles;
         Alcotest.test_case "constant rate" `Quick
           test_activity_constant_rate;
         Alcotest.test_case "test set 1 digest pinned" `Quick
           test_activity_digest_pinned ]);
      ("density",
       [ Alcotest.test_case "gate formulas" `Quick
           test_density_gate_formulas;
         Alcotest.test_case "clamped" `Quick test_density_clamped;
         Alcotest.test_case "tracks simulation" `Quick
           test_density_vs_simulation;
         Alcotest.test_case "constants" `Quick test_density_constants ]);
      ("event-sim",
       [ Alcotest.test_case "sees glitches" `Quick
           test_event_sim_sees_glitches;
         Alcotest.test_case "settled values match Sim" `Quick
           test_event_sim_settled_values_match_sim;
         Alcotest.test_case "toggles dominate zero-delay" `Quick
           test_event_sim_toggles_dominate;
         Alcotest.test_case "settle depth bounded" `Quick
           test_event_sim_settle_depth_bounded;
         Alcotest.test_case "rates exceed one on glitchy nets" `Quick
           test_event_sim_rates_can_exceed_one;
         Alcotest.test_case "measure digest pinned" `Quick
           test_event_sim_digest_pinned ]) ]
