type outcome = {
  x : float array;
  iterations : int;
  residual : float;
  converged : bool;
  breakdown : string option;
}

let default_tol = 1e-10

(* --- convergence telemetry ------------------------------------------------
   Every solve logs its per-iteration relative residuals into a bounded
   per-solve buffer (stride-doubling downsample: when the buffer fills,
   every other entry is dropped and the sampling stride doubles, so the
   trajectory shape survives at any iteration count), and the finished
   history lands in a small process-global ring. The ring is what the CLI
   report's "convergence" section and the tests read: the last
   [history_ring_capacity] solves, escalation retries included, each
   tagged with its label. *)

let residual_log_capacity = 256

type res_log = {
  rl_buf : float array;
  mutable rl_len : int;
  mutable rl_stride : int;  (* every stride-th iteration is retained *)
  mutable rl_seen : int;
}

let log_create () =
  { rl_buf = Array.make residual_log_capacity 0.0; rl_len = 0;
    rl_stride = 1; rl_seen = 0 }

let log_push l r =
  if l.rl_seen mod l.rl_stride = 0 then begin
    if l.rl_len = residual_log_capacity then begin
      (* keep every other entry; retained entries stay stride-aligned
         because the capacity is even *)
      for i = 0 to (residual_log_capacity / 2) - 1 do
        l.rl_buf.(i) <- l.rl_buf.(2 * i)
      done;
      l.rl_len <- residual_log_capacity / 2;
      l.rl_stride <- l.rl_stride * 2
    end;
    l.rl_buf.(l.rl_len) <- r;
    l.rl_len <- l.rl_len + 1
  end;
  l.rl_seen <- l.rl_seen + 1

type history = {
  h_label : string;        (* "jacobi", or the escalation retry's tag *)
  h_iterations : int;
  h_converged : bool;
  h_breakdown : string option;
  h_stride : int;
  h_residuals : float array;
}

let history_ring_capacity = 32

let ring : history option array = Array.make history_ring_capacity None
let ring_mutex = Mutex.create ()
let ring_pos = ref 0
let ring_total = ref 0

let push_history h =
  Mutex.protect ring_mutex (fun () ->
      ring.(!ring_pos) <- Some h;
      ring_pos := (!ring_pos + 1) mod history_ring_capacity;
      incr ring_total)

let recent_histories () =
  Mutex.protect ring_mutex (fun () ->
      let n = min !ring_total history_ring_capacity in
      List.init n (fun i ->
          Option.get
            ring.((!ring_pos - n + i + (2 * history_ring_capacity))
                  mod history_ring_capacity)))

let clear_histories () =
  Mutex.protect ring_mutex (fun () ->
      Array.fill ring 0 history_ring_capacity None;
      ring_pos := 0;
      ring_total := 0)

let history_json h =
  Obs.Json.Obj
    [ ("label", Obs.Json.String h.h_label);
      ("iterations", Obs.Json.Int h.h_iterations);
      ("converged", Obs.Json.Bool h.h_converged);
      ("breakdown",
       (match h.h_breakdown with
        | None -> Obs.Json.Null
        | Some b -> Obs.Json.String b));
      ("residual_stride", Obs.Json.Int h.h_stride);
      ("residuals",
       Obs.Json.List
         (Array.to_list (Array.map (fun r -> Obs.Json.Float r) h.h_residuals))) ]

let histories_json () =
  Obs.Json.List (List.map history_json (recent_histories ()))

(* Dot products sum fixed 2048-element chunks, then add the chunk sums
   in order: the rounding every committed result was produced with. *)
let vec_chunk = 2048

let dot a b =
  let n = Array.length a in
  let acc = ref 0.0 in
  for c = 0 to (n - 1) / vec_chunk do
    let lo = c * vec_chunk in
    let part = ref 0.0 in
    for i = lo to min n (lo + vec_chunk) - 1 do
      part := !part +. (a.(i) *. b.(i))
    done;
    acc := !acc +. !part
  done;
  !acc

(* Per-solve telemetry: iteration count and final residual feed histograms
   so sweeps can audit convergence after the fact, and a max-iter exit is
   never silent — it counts and warns (Mesh.solve additionally hard-fails). *)
let record outcome =
  Obs.Metrics.count "thermal.cg.solves";
  Obs.Metrics.observe "thermal.cg.iterations"
    (float_of_int outcome.iterations);
  Obs.Metrics.observe "thermal.cg.residual" outcome.residual;
  (match outcome.breakdown with
   | Some _ -> Obs.Metrics.count "thermal.cg.breakdown"
   | None -> ());
  if not outcome.converged then begin
    Obs.Metrics.count "thermal.cg.nonconverged";
    Obs.Log.warn
      (Printf.sprintf
         "Cg.solve: no convergence after %d iters, residual %.3e%s"
         outcome.iterations outcome.residual
         (match outcome.breakdown with
          | Some why -> " (breakdown: " ^ why ^ ")"
          | None -> ""))
  end;
  outcome

(* Breakdown detection: CG on an SPD system has pAp > 0 and rho > 0 at
   every step. A non-positive or non-finite curvature / rho means the
   system is not SPD (operator bug, injected perturbation) or arithmetic
   has degenerated — dividing through would fill [x] with NaN/Inf, so we
   stop *before* the division and report [converged = false] with a
   breakdown reason. A residual that stops improving (or explodes) for
   [stall_window] iterations is cut off the same way. *)
let stall_window = 200
let divergence_factor = 1e8

let solve_raw m ~b ~tol ?max_iter () =
  let rlog = log_create () in
  let n = Stencil.dim m in
  if Array.length b <> n then invalid_arg "Cg.solve: rhs dimension mismatch";
  let max_iter = match max_iter with Some k -> k | None -> 4 * n in
  let diag = Stencil.diagonal m in
  Array.iter
    (fun d -> if d <= 0.0 then
        invalid_arg "Cg.solve: non-positive diagonal entry")
    diag;
  if Robust.Faults.consume Robust.Faults.Cg_stall then
    (* injected non-convergence: report failure with an untouched iterate *)
    ({ x = Array.make n 0.0; iterations = 0; residual = 1.0; converged = false;
       breakdown = Some "injected: cg_stall" },
     rlog)
  else begin
  let norm a = sqrt (dot a a) in
  let apply_jacobi r z =
    for i = 0 to n - 1 do z.(i) <- r.(i) /. diag.(i) done
  in
  (* from the zero start, so the first residual is [b] itself *)
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  let bnorm = norm b in
  if bnorm = 0.0 then
    ({ x = Array.make n 0.0; iterations = 0; residual = 0.0;
       converged = true; breakdown = None },
     rlog)
  else begin
    let z = Array.make n 0.0 in
    apply_jacobi r z;
    let p = Array.copy z in
    let ap = Array.make n 0.0 in
    let rz = ref (dot r z) in
    let iterations = ref 0 in
    let rn0 = norm r /. bnorm in
    log_push rlog rn0;
    let converged = ref (rn0 <= tol) in
    let breakdown = ref None in
    let best_rn = ref infinity in
    let since_best = ref 0 in
    while !breakdown = None && (not !converged) && !iterations < max_iter do
      incr iterations;
      (* cooperative cancellation at iteration granularity (one atomic
         read when no deadline is armed, negligible next to the product):
         a job past its deadline aborts a solve within one iteration
         instead of only between flow phases *)
      Robust.Cancel.check ();
      Stencil.mul m p ap;
      let pap = dot p ap in
      if not (Float.is_finite pap) || pap <= 0.0 then
        breakdown :=
          Some (Printf.sprintf "non-positive curvature (pAp = %g)" pap)
      else begin
        let alpha = !rz /. pap in
        for i = 0 to n - 1 do
          x.(i) <- x.(i) +. (alpha *. p.(i));
          r.(i) <- r.(i) -. (alpha *. ap.(i))
        done;
        let rn = norm r in
        if not (Float.is_finite rn) then
          breakdown := Some "non-finite residual"
        else begin
          log_push rlog (rn /. bnorm);
          if rn < !best_rn then begin
            best_rn := rn;
            since_best := 0
          end
          else begin
            incr since_best;
            if rn > divergence_factor *. !best_rn then
              breakdown :=
                Some (Printf.sprintf "residual diverging (%.3e from %.3e)"
                        rn !best_rn)
            else if !since_best >= stall_window then
              breakdown :=
                Some (Printf.sprintf
                        "residual stagnant for %d iterations" stall_window)
          end;
          if !breakdown = None then begin
            if rn /. bnorm <= tol then converged := true
            else begin
              apply_jacobi r z;
              let rz' = dot r z in
              if not (Float.is_finite rz') || Float.abs rz' <= 1e-300 then
                breakdown :=
                  Some (Printf.sprintf "rho breakdown (rho = %g)" rz')
              else begin
                let beta = rz' /. !rz in
                rz := rz';
                for i = 0 to n - 1 do
                  p.(i) <- z.(i) +. (beta *. p.(i))
                done
              end
            end
          end
        end
      end
    done;
    (* belt and braces: whatever the exit path, never hand back a
       non-finite iterate — restore the start vector instead *)
    let finite = ref true in
    for i = 0 to n - 1 do
      if not (Float.is_finite x.(i)) then finite := false
    done;
    if not !finite then begin
      Array.fill x 0 n 0.0;
      converged := false;
      if !breakdown = None then breakdown := Some "non-finite iterate"
    end;
    (* true residual for the report *)
    Stencil.mul m x ap;
    let res = ref 0.0 in
    for i = 0 to n - 1 do
      let d = b.(i) -. ap.(i) in
      res := !res +. (d *. d)
    done;
    ({ x; iterations = !iterations; residual = sqrt !res /. bnorm;
       converged = !converged; breakdown = !breakdown },
     rlog)
  end
  end

let solve_labeled m ~b ~tol ?max_iter ~label () =
  Obs.Trace.with_span "thermal.cg.solve" (fun () ->
      let out, rlog = solve_raw m ~b ~tol ?max_iter () in
      let out = record out in
      push_history
        { h_label = label; h_iterations = out.iterations;
          h_converged = out.converged; h_breakdown = out.breakdown;
          h_stride = rlog.rl_stride;
          h_residuals = Array.sub rlog.rl_buf 0 rlog.rl_len };
      (* residual-trajectory metrics: initial and final relative residual
         plus the geometric per-iteration reduction rate, so sweeps can
         audit convergence quality, not just iteration counts *)
      if rlog.rl_len > 0 then begin
        let r0 = rlog.rl_buf.(0) in
        Obs.Metrics.observe "thermal.cg.residual.initial" r0;
        Obs.Metrics.observe "thermal.cg.residual.final" out.residual;
        if out.iterations > 0 && r0 > 0.0 && out.residual > 0.0 then
          Obs.Metrics.observe "thermal.cg.residual.rate"
            ((out.residual /. r0) ** (1.0 /. float_of_int out.iterations))
      end;
      Obs.Trace.add_metric "cg.iterations" (float_of_int out.iterations);
      Obs.Trace.add_metric "cg.residual" out.residual;
      out)

let solve m ~b ?(tol = default_tol) ?max_iter () =
  solve_labeled m ~b ~tol ?max_iter ~label:"jacobi" ()

type status = Clean | Recovered | Degraded

type escalation = {
  esc_outcome : outcome;
  esc_status : status;
  esc_rungs : string list;
}

(* One recovery path. A failed first attempt (breakdown or max-iter
   exit) is retried once, from cold, with four times the budget: a
   transient failure (an injected stall) does not repeat, and the larger
   budget covers slow-but-sound systems. The iterates do not depend on
   the budget, so wherever the retry converges inside the first
   attempt's budget its answer is the one a plain solve gives. *)
let solve_escalating m ~b () =
  let budget = 4 * Stencil.dim m in
  let first = solve m ~b ~max_iter:budget () in
  if first.converged then
    { esc_outcome = first; esc_status = Clean; esc_rungs = [] }
  else begin
    Obs.Metrics.count "thermal.cg.escalations";
    let retry =
      solve_labeled m ~b ~tol:default_tol ~max_iter:(4 * budget)
        ~label:"esc:restart" ()
    in
    if retry.converged then begin
      Obs.Metrics.count "thermal.cg.escalation.recovered";
      { esc_outcome = retry; esc_status = Recovered; esc_rungs = [ "restart" ] }
    end
    else begin
      Obs.Metrics.count "thermal.cg.escalation.degraded";
      { esc_outcome = (if retry.residual < first.residual then retry else first);
        esc_status = Degraded; esc_rungs = [ "restart" ] }
    end
  end
