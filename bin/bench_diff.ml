(* bench_diff [--threshold F] [--scale-times F] [--json FILE] BASELINE FRESH

   Regression gate over the BENCH_<name>.json summaries: walks both files
   key-by-key and fails (exit 1) when

     - a wall-clock key (ending in "_ms") regressed beyond its band
       against the baseline, or
     - a boolean invariant that held in the baseline (plans_agree,
       parallel_bit_identical, the fig6 checks, ...) flipped to false, or
     - an integer result under "summary" (an iteration, V-cycle,
       evaluation, solve, job or batch count, an exit code, a plan row)
       differs from the baseline's: counts are exact and
       machine-independent, so any change is a real one, or
     - a baseline key is missing from the fresh run.

   A "_ms" value is either a plain number (a single-trial sample) or the
   {median, min, max, iqr, trials} statistics object `bench --trials N`
   emits. The gate compares medians and is noise-aware: the allowed band
   is max(baseline_median * (1 + threshold) + baseline_iqr, 1.0 ms), so a
   key whose baseline run was noisy gets proportionally more headroom,
   while a key whose baseline median is at or near zero is held to the
   absolute floor instead of gating on sub-millisecond scheduler noise
   (Obs.Gate). Legacy scalar baselines have zero IQR and degrade to the
   flat threshold (default 0.15 = +15%).

   Fresh keys absent from the baseline are ignored (new metrics may land
   before their baseline is refreshed), a false -> true flip is an
   improvement, not a failure, and floats other than "_ms" keys (errors,
   peaks, ratios) and the top-level "trials" echo are informational.
   --scale-times multiplies the fresh run's "_ms" medians before
   comparison; scripts/check.sh uses it to prove the gate actually trips
   on a simulated slowdown. --json FILE writes the machine-readable
   verdict (per-key status, deltas, bands) alongside the human output.
   All failures are printed, not just the first. Exit codes: 0 clean,
   1 regression, 2 usage / parse error. *)

let threshold = ref 0.15
let scale_times = ref 1.0
let json_out = ref None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match Obs.Json.of_string (read_file path) with
  | Ok json -> json
  | Error msg ->
    Printf.eprintf "bench_diff: %s: invalid JSON: %s\n" path msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "bench_diff: %s\n" msg;
    exit 2

let is_time_key path =
  let n = String.length path in
  n >= 3 && String.sub path (n - 3) 3 = "_ms"

(* A timing leaf: (median, iqr). Plain numbers are single samples with
   zero spread; statistics objects carry their measured IQR. *)
let time_value json =
  match Obs.Json.to_float json with
  | Some v -> Some (v, 0.0)
  | None ->
    (match Option.bind (Obs.Json.member "median" json) Obs.Json.to_float with
     | None -> None
     | Some median ->
       let iqr =
         Option.value ~default:0.0
           (Option.bind (Obs.Json.member "iqr" json) Obs.Json.to_float)
       in
       Some (median, iqr))

let failures = ref []
let fail path fmt =
  Printf.ksprintf (fun msg -> failures := (path, msg) :: !failures) fmt

(* Machine-readable verdict entries, in walk order. *)
let entries : Obs.Json.t list ref = ref []
let entry path status extra =
  entries :=
    Obs.Json.Obj
      ([ ("path", Obs.Json.String path); ("status", Obs.Json.String status) ]
       @ extra)
    :: !entries

(* The allowed band comes from Obs.Gate: the noise-aware multiplicative
   band with an absolute floor (Gate.absolute_floor_ms), so a zero- or
   near-zero-median baseline is gated against the floor instead of
   failing on (or being over-tight against) sub-millisecond noise. With
   the floor in place, zero medians are well-defined and gate like any
   other key. *)
let gate_time path ~base ~base_iqr ~fresh =
  let fresh = fresh *. !scale_times in
  let allowed = Obs.Gate.allowed_ms ~threshold:!threshold ~median:base ~iqr:base_iqr in
  let delta_pct =
    if base > 0.0 then 100.0 *. (fresh -. base) /. base else Float.nan
  in
  let fields =
    [ ("base_ms", Obs.Json.Float base);
      ("base_iqr_ms", Obs.Json.Float base_iqr);
      ("fresh_ms", Obs.Json.Float fresh);
      ("allowed_ms", Obs.Json.Float allowed);
      ("delta_pct", Obs.Json.Float delta_pct) ]
  in
  if
    base >= 0.0 && Float.is_finite base && Float.is_finite fresh
    && fresh > allowed
  then begin
    entry path "fail" fields;
    fail path
      "wall-clock regression: %.2f ms -> %.2f ms (%+.0f%%, allowed %.2f ms \
       = max(+%.0f%% + %.2f ms IQR, %.1f ms floor))"
      base fresh delta_pct allowed (100.0 *. !threshold) base_iqr
      Obs.Gate.absolute_floor_ms
  end
  else if base >= 0.0 && Float.is_finite base && Float.is_finite fresh then begin
    entry path "ok" fields;
    Printf.printf "  ok %-55s %10.2f -> %10.2f ms (%+.0f%%)\n" path base fresh
      delta_pct
  end

(* Baseline-driven walk: every leaf of the baseline must still be present
   (and not regressed) in the fresh run. The "_ms" test runs before the
   object case so statistics objects gate as timing leaves instead of
   being walked field-by-field (their min/max/iqr fields are noise, not
   invariants). *)
let rec diff path (base : Obs.Json.t) (fresh : Obs.Json.t option) =
  match base, fresh with
  | _, None ->
    entry path "missing" [];
    fail path "missing from fresh run"
  | base, Some fresh_v when is_time_key path && time_value base <> None ->
    let b, b_iqr = Option.get (time_value base) in
    (match time_value fresh_v with
     | None ->
       entry path "invalid" [];
       fail path "baseline is a timing value, fresh run is not"
     | Some (f, _) -> gate_time path ~base:b ~base_iqr:b_iqr ~fresh:f)
  | Obs.Json.Obj fields, Some fresh ->
    List.iter
      (fun (k, v) ->
         let sub = if path = "" then k else path ^ "." ^ k in
         diff sub v (Obs.Json.member k fresh))
      fields
  | Obs.Json.List items, Some fresh ->
    (match Obs.Json.to_list fresh with
     | None ->
       entry path "invalid" [];
       fail path "baseline is a list, fresh run is not"
     | Some fresh_items ->
       if List.length fresh_items <> List.length items then begin
         entry path "invalid" [];
         fail path "list length changed (%d -> %d)" (List.length items)
           (List.length fresh_items)
       end
       else
         List.iteri
           (fun i v ->
              diff (Printf.sprintf "%s[%d]" path i) v
                (Some (List.nth fresh_items i)))
           items)
  | Obs.Json.Bool true, Some fresh ->
    (match fresh with
     | Obs.Json.Bool false ->
       entry path "fail"
         [ ("base", Obs.Json.Bool true); ("fresh", Obs.Json.Bool false) ];
       fail path "invariant flipped true -> false"
     | Obs.Json.Bool true -> entry path "ok" [ ("base", Obs.Json.Bool true) ]
     | _ ->
       entry path "invalid" [];
       fail path "baseline is a boolean, fresh run is not")
  | Obs.Json.Bool false, Some _ -> ()
  | Obs.Json.Int b, Some fresh when String.starts_with ~prefix:"summary." path
    ->
    (match fresh with
     | Obs.Json.Int f when f = b -> entry path "ok" [ ("base", Obs.Json.Int b) ]
     | _ ->
       entry path "fail" [ ("base", Obs.Json.Int b); ("fresh", fresh) ];
       fail path "count changed: %d -> %s" b (Obs.Json.to_string fresh))
  | _, Some _ -> ()  (* other scalars are informational only *)

let write_verdict path ~baseline_path ~fresh_path =
  let ordered = List.rev !entries in
  let failed =
    List.length
      (List.filter
         (fun e ->
            match Option.bind (Obs.Json.member "status" e) Obs.Json.to_string_opt with
            | Some ("fail" | "missing" | "invalid") -> true
            | _ -> false)
         ordered)
  in
  let json =
    Obs.Json.Obj
      [ ("baseline", Obs.Json.String baseline_path);
        ("fresh", Obs.Json.String fresh_path);
        ("threshold", Obs.Json.Float !threshold);
        ("scale_times", Obs.Json.Float !scale_times);
        ("ok", Obs.Json.Bool (failed = 0));
        ("failed", Obs.Json.Int failed);
        ("keys", Obs.Json.List ordered) ]
  in
  try Obs.Report.write_string_atomic path (Obs.Json.to_string ~pretty:true json ^ "\n")
  with Sys_error msg ->
    Printf.eprintf "bench_diff: cannot write %s: %s\n" path msg;
    exit 2

let () =
  let rec parse_args acc = function
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
       | Some t when t > 0.0 -> threshold := t
       | _ ->
         prerr_endline "bench_diff: --threshold expects a positive number";
         exit 2);
      parse_args acc rest
    | "--scale-times" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s > 0.0 -> scale_times := s
       | _ ->
         prerr_endline "bench_diff: --scale-times expects a positive number";
         exit 2);
      parse_args acc rest
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse_args acc rest
    | x :: rest -> parse_args (x :: acc) rest
    | [] -> List.rev acc
  in
  match parse_args [] (List.tl (Array.to_list Sys.argv)) with
  | [ baseline_path; fresh_path ] ->
    let baseline = parse_file baseline_path in
    let fresh = parse_file fresh_path in
    Printf.printf "bench_diff: %s vs %s (threshold +%.0f%% + baseline IQR%s)\n"
      baseline_path fresh_path (100.0 *. !threshold)
      (if !scale_times <> 1.0 then
         Printf.sprintf ", fresh times scaled x%g" !scale_times
       else "");
    diff "" baseline (Some fresh);
    Option.iter
      (fun p -> write_verdict p ~baseline_path ~fresh_path)
      !json_out;
    (match List.rev !failures with
     | [] ->
       Printf.printf "bench_diff: OK\n"
     | fs ->
       List.iter
         (fun (path, msg) ->
            Printf.eprintf "bench_diff: FAIL %s: %s\n" path msg)
         fs;
       exit 1)
  | _ ->
    prerr_endline
      "usage: bench_diff [--threshold F] [--scale-times F] [--json FILE] \
       BASELINE FRESH";
    exit 2
