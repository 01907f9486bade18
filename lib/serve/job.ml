(* One job: the JSONL request codec, the pre-prepare fingerprint, and the
   (deterministic) technique execution against a prepared flow. The
   thermoplace CLI describes its runs as requests too, so a CLI run and
   a served job share one test-set table, one fingerprint and one
   executor.

   A request is one line of JSON. Parsing is strict where it matters —
   field names, enums, ranges, the fault spec — because an invalid
   request must fail fast at admission, never after a prepared flow was
   paid for, and must never be retried. *)

module Flow = Postplace.Flow

type technique = Default | Eri | Hw | Optimize

let techniques =
  [ ("default", Default); ("eri", Eri); ("hw", Hw); ("optimize", Optimize) ]

let technique_names = List.map fst techniques
let technique_name t = fst (List.find (fun (_, t') -> t' = t) techniques)

let technique_of_name s =
  match List.assoc_opt s techniques with
  | Some t -> Ok t
  | None -> Error (Printf.sprintf "unknown technique %S" s)

type request = {
  id : string;
  test_set : string;
  technique : technique;
  seed : int;
  cycles : int;
  utilization : float;
  guide : Flow.guide_choice;
  guide_name : string;
  overhead : float;
  rows : int option;
  deadline_ms : float option;
  max_retries : int option;
  faults : (Robust.Faults.fault * int) list;
  faults_spec : string;
}

let ( let* ) = Result.bind

let make ?(test_set = "small") ?(technique = "eri") ?(seed = 42)
    ?(cycles = 1000) ?(utilization = 0.85) ?(precond = "auto")
    ?(guide = "peak") ?(overhead = 0.2) ?rows
    ?deadline_ms ?max_retries ?(faults = "") id =
  let tag r = Result.map_error (fun m -> id ^ ": " ^ m) r in
  let require ok msg = if ok then Ok () else Error (id ^ ": " ^ msg) in
  let at_least lo = function Some v -> v >= lo | None -> true in
  let* () =
    require
      (List.mem test_set Postplace.Experiment.test_set_names)
      (Printf.sprintf "unknown test_set %S" test_set)
  in
  let* technique_v = tag (technique_of_name technique) in
  let* () = require (cycles >= 1) "cycles must be >= 1" in
  let* () =
    require
      (utilization > 0.0 && utilization <= 1.0)
      "utilization must be in (0, 1]"
  in
  (* the solver is not a choice; the field stays for clients that name
     it *)
  let* () =
    require
      (precond = "auto" || precond = "mg")
      (Printf.sprintf "unknown precond %S" precond)
  in
  let* guide_v = tag (Flow.guide_of_name guide) in
  let* () =
    require (overhead >= 0.0 && overhead <= 4.0) "overhead must be in [0, 4]"
  in
  let* () = require (at_least 1 rows) "rows must be >= 1" in
  let* () =
    require
      (match deadline_ms with Some d -> d > 0.0 | None -> true)
      "deadline_ms must be > 0"
  in
  let* () = require (at_least 0 max_retries) "max_retries must be >= 0" in
  let* faults_v =
    Result.map_error
      (fun m -> id ^ ": bad faults spec: " ^ m)
      (Robust.Faults.parse_spec faults)
  in
  Ok
    { id; test_set; technique = technique_v; seed; cycles; utilization;
      guide = guide_v; guide_name = guide; overhead; rows; deadline_ms;
      max_retries; faults = faults_v; faults_spec = faults }

let fields =
  [ "id"; "test_set"; "technique"; "seed"; "cycles"; "utilization";
    "precond"; "guide"; "overhead"; "rows"; "deadline_ms";
    "max_retries"; "faults" ]

let field json name to_v ~kind =
  match Obs.Json.member name json with
  | None -> Ok None
  | Some j -> (
    match to_v j with
    | Some v -> Ok (Some v)
    | None -> Error (Printf.sprintf "field %S must be %s" name kind))

let request_of_json json =
  match json with
  | Obs.Json.Obj members ->
    let* id =
      match Option.bind (Obs.Json.member "id" json) Obs.Json.to_string_opt with
      | Some s when String.trim s <> "" -> Ok s
      | Some _ -> Error "field \"id\" must be a non-empty string"
      | None -> Error "missing string field \"id\""
    in
    let* () =
      match List.find_opt (fun (k, _) -> not (List.mem k fields)) members with
      | Some (k, _) -> Error (Printf.sprintf "%s: unknown field %S" id k)
      | None -> Ok ()
    in
    let str name = field json name Obs.Json.to_string_opt ~kind:"a string" in
    let int name = field json name Obs.Json.to_int ~kind:"an integer" in
    let num name =
      field json name ~kind:"a finite number" (fun j ->
          Option.bind (Obs.Json.to_float j) (fun v ->
              if Float.is_finite v then Some v else None))
    in
    let* test_set = str "test_set" in
    let* technique = str "technique" in
    let* seed = int "seed" in
    let* cycles = int "cycles" in
    let* utilization = num "utilization" in
    let* precond = str "precond" in
    let* guide = str "guide" in
    let* overhead = num "overhead" in
    let* rows = int "rows" in
    let* deadline_ms = num "deadline_ms" in
    let* max_retries = int "max_retries" in
    let* faults = str "faults" in
    make ?test_set ?technique ?seed ?cycles ?utilization ?precond ?guide
      ?overhead ?rows ?deadline_ms ?max_retries ?faults id
  | _ -> Error "request is not a JSON object"

let request_of_line line =
  match Obs.Json.of_string line with
  | Error msg -> Error ("unparseable request: " ^ msg)
  | Ok json -> request_of_json json

let request_to_json r =
  let opt name f v = match v with Some v -> [ (name, f v) ] | None -> [] in
  Obs.Json.Obj
    ([ ("id", Obs.Json.String r.id);
       ("test_set", Obs.Json.String r.test_set);
       ("technique", Obs.Json.String (technique_name r.technique));
       ("seed", Obs.Json.Int r.seed);
       ("cycles", Obs.Json.Int r.cycles);
       ("utilization", Obs.Json.Float r.utilization);
       ("guide", Obs.Json.String r.guide_name);
       ("overhead", Obs.Json.Float r.overhead) ]
     @ opt "rows" (fun v -> Obs.Json.Int v) r.rows
     @ opt "deadline_ms" (fun v -> Obs.Json.Float v) r.deadline_ms
     @ opt "max_retries" (fun v -> Obs.Json.Int v) r.max_retries
     @ (if r.faults_spec = "" then []
        else [ ("faults", Obs.Json.String r.faults_spec) ]))

(* Echo of the request for the per-job ledger record's config object. *)
let config_json r =
  match request_to_json r with
  | Obs.Json.Obj fields -> List.remove_assoc "id" fields
  | _ -> assert false

(* The problem identity: everything [prepare_flow] consumes and nothing
   else. Computable without preparing anything, which is the whole point
   — the server groups queued jobs on this string before paying for a
   flow. *)
let fingerprint ?(extra = []) r =
  Flow.config_fingerprint ~mesh_config:Thermal.Mesh.default_config
    ~seed:r.seed ~utilization:r.utilization
    ~extra:
      ([ ("set", r.test_set); ("cycles", string_of_int r.cycles) ] @ extra)
    ()

let prepare_flow r =
  Postplace.Experiment.prepare_test_set ~seed:r.seed
    ~utilization:r.utilization ~sim_cycles:r.cycles r.test_set

type applied = {
  placement : Place.Placement.t;
  plan : int list option;
  optimizer : Postplace.Optimizer.result option;
}

type executed = {
  after : Flow.evaluation;
  peak_rise_k : float;
  reduction_pct : float;
  area_overhead_pct : float;
  plan_hash : string option;
  result_json : Obs.Json.t;
}

let plan_digest inserted_after =
  Digest.to_hex
    (Digest.string (String.concat "," (List.map string_of_int inserted_after)))

(* Default relaxes utilization by the overhead; HW decorates that Default
   placement's hotspots; ERI spends [rows] or, without it, the overhead's
   row count rounded down; optimize spends [rows] (2 by default). *)
let apply ~(flow : Flow.t) ~(base : Flow.evaluation) r =
  let default () =
    Flow.apply_default flow
      ~utilization:(r.utilization /. (1.0 +. r.overhead))
  in
  let placed placement = { placement; plan = None; optimizer = None } in
  match r.technique with
  | Default -> placed (default ())
  | Eri ->
    let rows =
      match r.rows with
      | Some rows -> rows
      | None -> Flow.rows_for_overhead flow r.overhead
    in
    let res = Flow.apply_eri flow ~base ~rows in
    { placement = res.Postplace.Technique.eri_placement;
      plan = Some res.Postplace.Technique.inserted_after; optimizer = None }
  | Hw ->
    placed (Flow.apply_hw flow ~on:(Flow.evaluate flow (default ())) ())
  | Optimize ->
    let rows = Option.value r.rows ~default:2 in
    let res = Postplace.Optimizer.greedy_rows flow ~rows ~guide:r.guide () in
    let plan = res.Postplace.Optimizer.plan in
    { placement = plan.Postplace.Technique.eri_placement;
      plan = Some plan.Postplace.Technique.inserted_after;
      optimizer = Some res }

(* Everything in [result_json] is a deterministic function of the request
   (no wall-clock, no queue state), so CI can compare fault-armed and
   fault-free runs of the same file field by field and expect bit
   identity for unaffected jobs. *)
let score ~(flow : Flow.t) ~(base : Flow.evaluation) r applied =
  let ev = Flow.evaluate flow applied.placement in
  let peak = ev.Flow.metrics.Thermal.Metrics.peak_rise_k in
  let reduction =
    Thermal.Metrics.reduction_pct ~before:base.Flow.metrics
      ~after:ev.Flow.metrics
  in
  let area =
    Postplace.Technique.area_overhead_pct ~base:base.Flow.placement
      applied.placement
  in
  let plan_hash = Option.map plan_digest applied.plan in
  let result_json =
    Obs.Json.Obj
      ([ ("technique", Obs.Json.String (technique_name r.technique));
         ("base_peak_rise_k",
          Obs.Json.Float base.Flow.metrics.Thermal.Metrics.peak_rise_k);
         ("peak_rise_k", Obs.Json.Float peak);
         ("peak_reduction_pct", Obs.Json.Float reduction);
         ("area_overhead_pct", Obs.Json.Float area) ]
       @ (match plan_hash with
          | Some h -> [ ("plan_hash", Obs.Json.String h) ]
          | None -> [])
       @
       match applied.optimizer with
       | None -> []
       | Some res ->
         [ ("evaluations", Obs.Json.Int res.Postplace.Optimizer.evaluations);
           ("blur_evaluations",
            Obs.Json.Int res.Postplace.Optimizer.blur_evaluations);
           ("adjoint_evaluations",
            Obs.Json.Int res.Postplace.Optimizer.adjoint_evaluations) ])
  in
  { after = ev; peak_rise_k = peak; reduction_pct = reduction;
    area_overhead_pct = area; plan_hash; result_json }

let execute ~flow ~base r = score ~flow ~base r (apply ~flow ~base r)
