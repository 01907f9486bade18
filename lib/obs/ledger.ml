(* Append-only JSONL run ledger.

   One line per completed run, appended with a single O_APPEND write so
   concurrent runs interleave whole records rather than bytes, and a
   crash can only lose the line being written — never corrupt earlier
   history. Records reuse the exact-float Json codec, so timings and
   temperatures survive a round-trip bit-identically (the same guarantee
   Robust.Checkpoint leans on). *)

let schema_version = 1
let default_path = "thermoplace.ledger.jsonl"
let env_var = "THERMOPLACE_LEDGER"

(* Explicit flag beats the environment beats the default; "none" (from
   either source) disables the ledger entirely. *)
let resolve_path ?path () =
  let chosen =
    match path with
    | Some p -> p
    | None -> (
      match Sys.getenv_opt env_var with
      | Some p when String.trim p <> "" -> p
      | _ -> default_path)
  in
  if chosen = "none" then None else Some chosen

let make_record ?timestamp_s ?job_id ?(config = []) ?(phases_ms = [])
    ?cg_iterations ?peak_rise_k ?plan_hash ?metrics ?error ~command
    ~fingerprint ~outcome ~exit_code () =
  let ts =
    match timestamp_s with Some t -> t | None -> Unix.gettimeofday ()
  in
  let opt name f v =
    match v with Some v -> [ (name, f v) ] | None -> []
  in
  Json.Obj
    ([ ("schema_version", Json.Int schema_version);
       ("timestamp_s", Json.Float ts);
       ("command", Json.String command) ]
     @ opt "job_id" (fun id -> Json.String id) job_id
     @ [
       ("fingerprint", Json.String fingerprint);
       ("config", Json.Obj config);
       ("phases_ms",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) phases_ms))
     ]
     @ opt "cg_iterations" (fun n -> Json.Int n) cg_iterations
     @ opt "peak_rise_k" (fun v -> Json.Float v) peak_rise_k
     @ opt "plan_hash" (fun h -> Json.String h) plan_hash
     @ opt "metrics" (fun m -> m) metrics
     @ [ ("outcome", Json.String outcome);
         ("exit_code", Json.Int exit_code) ]
     @ opt "error" (fun e -> Json.String e) error)

let validate_record json =
  match json with
  | Json.Obj _ -> (
    match Option.bind (Json.member "schema_version" json) Json.to_int with
    | Some v when v = schema_version -> (
      (* job_id is optional (CLI runs omit it) but must be a string when
         a serve run records it — anything else would silently break
         [history list --job] filtering. *)
      match Json.member "job_id" json with
      | None | Some (Json.String _) -> Ok json
      | Some _ -> Error "job_id field must be a string when present")
    | Some v ->
      Error (Printf.sprintf "unsupported schema_version %d (expected %d)"
               v schema_version)
    | None -> Error "missing integer schema_version field")
  | _ -> Error "record is not a JSON object"

let append ~path record =
  (match validate_record record with
   | Ok _ -> ()
   | Error msg -> invalid_arg ("Obs.Ledger.append: " ^ msg));
  let line = Json.to_string record ^ "\n" in
  (* JSONL forbids raw newlines inside a record; the compact printer
     never emits one, but a bug here would silently corrupt every later
     read, so fail loudly instead. *)
  String.iteri
    (fun i c ->
       if c = '\n' && i <> String.length line - 1 then
         invalid_arg "Obs.Ledger.append: record serialized with newline")
    line;
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
       let bytes = Bytes.of_string line in
       let n = Unix.write fd bytes 0 (Bytes.length bytes) in
       if n <> Bytes.length bytes then
         failwith "Obs.Ledger.append: short write")

let append_or_warn ~prog path record =
  match path with
  | None -> ()
  | Some path -> (
    try append ~path record
    with e ->
      Printf.eprintf "%s: cannot append to ledger %s: %s\n" prog path
        (Printexc.to_string e))

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    (* an unreadable path (a directory, no permission, an I/O fault) is
       an [Error] like a corrupt line, never an exception *)
    match open_in path with
    | exception Sys_error msg -> Error ("unreadable: " ^ msg)
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
           let rec go lineno records =
             match input_line ic with
             | exception End_of_file -> Ok (List.rev records)
             | exception Sys_error msg -> Error ("unreadable: " ^ msg)
             | line when String.trim line = "" -> go (lineno + 1) records
             | line -> (
               let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
               match Json.of_string line with
               | Error msg -> fail msg
               | Ok json -> (
                 match validate_record json with
                 | Ok r -> go (lineno + 1) (r :: records)
                 | Error msg -> fail msg))
           in
           go 1 [])

(* --- record accessors (for the history CLI and tests) ------------------- *)

let get_string name r = Option.bind (Json.member name r) Json.to_string_opt
let get_float name r = Option.bind (Json.member name r) Json.to_float
let get_int name r = Option.bind (Json.member name r) Json.to_int

let command r = Option.value ~default:"?" (get_string "command" r)
let job_id r = get_string "job_id" r
let fingerprint r = Option.value ~default:"?" (get_string "fingerprint" r)
let timestamp_s r = Option.value ~default:Float.nan (get_float "timestamp_s" r)
let outcome r = Option.value ~default:"?" (get_string "outcome" r)
let exit_code r = Option.value ~default:(-1) (get_int "exit_code" r)

let assoc_floats name r =
  match Json.member name r with
  | Some (Json.Obj fields) ->
    List.filter_map
      (fun (k, v) ->
         match Json.to_float v with Some f -> Some (k, f) | None -> None)
      fields
  | _ -> []

let phases_ms r = assoc_floats "phases_ms" r

let config_fields r =
  match Json.member "config" r with Some (Json.Obj f) -> f | _ -> []
