type fault =
  | Nan_power
  | Perturb_matrix
  | Cg_stall
  | Kill_worker

let all =
  [ Nan_power; Perturb_matrix; Cg_stall; Kill_worker ]

let to_string = function
  | Nan_power -> "nan_power"
  | Perturb_matrix -> "perturb_matrix"
  | Cg_stall -> "cg_stall"
  | Kill_worker -> "kill_worker"

let of_string s = List.find_opt (fun f -> to_string f = s) all

(* [armed_total] is the lock-free fast path: hooks sit on hot numeric
   paths (every CG solve, every pool chunk) and must cost one atomic load
   when no fault is armed. The table itself is mutex-protected because
   pool workers consume from arbitrary domains. *)
let armed_total = Atomic.make 0
let m = Mutex.create ()
let tbl : (fault, int) Hashtbl.t = Hashtbl.create 8

let arm ?(times = 1) fault =
  if times < 1 then invalid_arg "Faults.arm: times must be >= 1";
  Mutex.protect m (fun () ->
      let cur = Option.value (Hashtbl.find_opt tbl fault) ~default:0 in
      Hashtbl.replace tbl fault (cur + times);
      Atomic.set armed_total (Atomic.get armed_total + times))

let armed fault =
  Atomic.get armed_total > 0
  && Mutex.protect m (fun () ->
      match Hashtbl.find_opt tbl fault with
      | Some n -> n > 0
      | None -> false)

let consume fault =
  Atomic.get armed_total > 0
  && Mutex.protect m (fun () ->
      match Hashtbl.find_opt tbl fault with
      | Some n when n > 0 ->
        Hashtbl.replace tbl fault (n - 1);
        Atomic.set armed_total (Atomic.get armed_total - 1);
        Obs.Metrics.count "robust.faults.injected";
        Obs.Metrics.count ("robust.faults.injected." ^ to_string fault);
        true
      | _ -> false)

let clear () =
  Mutex.protect m (fun () ->
      Hashtbl.reset tbl;
      Atomic.set armed_total 0)

let with_fault ?times fault f =
  arm ?times fault;
  Fun.protect
    ~finally:(fun () ->
        Mutex.protect m (fun () ->
            match Hashtbl.find_opt tbl fault with
            | Some n when n > 0 ->
              Hashtbl.remove tbl fault;
              Atomic.set armed_total (Atomic.get armed_total - n)
            | _ -> ()))
    f

let env_var = "THERMOPLACE_FAULTS"

let parse_spec spec =
  let parse_one part =
    match String.split_on_char ':' (String.trim part) with
    | [ name ] | [ name; "" ] ->
      (match of_string name with
       | Some f -> Ok (f, 1)
       | None -> Error (Printf.sprintf "unknown fault %S" name))
    | [ name; count ] ->
      (match of_string name, int_of_string_opt count with
       | Some f, Some n when n >= 1 -> Ok (f, n)
       | Some _, _ ->
         Error (Printf.sprintf "bad count %S for fault %S" count name)
       | None, _ -> Error (Printf.sprintf "unknown fault %S" name))
    | _ -> Error (Printf.sprintf "malformed fault spec %S" part)
  in
  let parts =
    List.filter
      (fun s -> String.trim s <> "")
      (String.split_on_char ',' spec)
  in
  List.fold_left
    (fun acc part ->
       match acc, parse_one part with
       | Error _, _ -> acc
       | _, Error e -> Error e
       | Ok l, Ok fc -> Ok (l @ [ fc ]))
    (Ok []) parts

let init_from_env () =
  match Sys.getenv_opt env_var with
  | None -> Ok ()
  | Some spec ->
    (match parse_spec spec with
     | Error msg -> Error (Printf.sprintf "%s: %s" env_var msg)
     | Ok faults ->
       List.iter (fun (f, times) -> arm ~times f) faults;
       Ok ())
