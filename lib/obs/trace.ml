type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type span = {
  name : string;
  start_s : float;
  duration_s : float;
  tid : int;
  gc : gc_delta;
  metrics : (string * float) list;
  children : span list;
}

(* GC counters at one instant. The word counts come from [Gc.counters],
   which reads the calling domain's own allocation; [Gc.quick_stat] sums
   every domain on OCaml 5 and would charge a span for whatever the other
   domains allocated while it ran. Collections are process-wide events
   (every domain takes part in a minor collection), read from
   [Gc.quick_stat]. *)
type gc_mark = {
  m_minor : float;
  m_promoted : float;
  m_major : float;
  m_minor_collections : int;
  m_major_collections : int;
}

let gc_mark () =
  let m_minor, m_promoted, m_major = Gc.counters () in
  let s = Gc.quick_stat () in
  { m_minor; m_promoted; m_major;
    m_minor_collections = s.Gc.minor_collections;
    m_major_collections = s.Gc.major_collections }

(* an in-progress span; children and metrics accumulate in reverse *)
type frame = {
  f_name : string;
  f_start : float;
  f_gc0 : gc_mark;
  mutable f_metrics : (string * float) list;
  mutable f_children : span list;
}

(* One recorder per domain. A recorder is only ever written by the domain
   that owns it (reached through domain-local storage), so recording is
   lock-free; the global registry below is touched once per domain, under
   a mutex, at registration time. Worker domains of [Parallel.Pool]
   register on spawn, so spans opened inside pooled chunks land in the
   worker's own buffer and surface in the merged export with that
   domain's tid. *)
type recorder = {
  r_tid : int;
  mutable r_stack : frame list;
  mutable r_completed : span list;  (* reversed *)
}

let enabled_flag = ref false
let epoch = ref (Clock.now ())

let registry_mutex = Mutex.create ()
let recorders : recorder list ref = ref []

let slot_key : recorder option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let recorder () =
  let slot = Domain.DLS.get slot_key in
  match !slot with
  | Some r -> r
  | None ->
    let r =
      { r_tid = (Domain.self () :> int); r_stack = []; r_completed = [] }
    in
    Mutex.protect registry_mutex (fun () -> recorders := r :: !recorders);
    slot := Some r;
    r

let register_domain () = ignore (recorder ())

let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let now () = Clock.now () -. !epoch

(* Must be called while no traced work is in flight on other domains (the
   CLI resets between runs, with the pool idle): it clears every
   registered recorder, including those owned by worker domains. *)
let reset () =
  Mutex.protect registry_mutex (fun () ->
      List.iter
        (fun r ->
           r.r_stack <- [];
           r.r_completed <- [])
        !recorders);
  epoch := Clock.now ()

let gc_delta g0 g1 =
  { minor_words = g1.m_minor -. g0.m_minor;
    major_words = g1.m_major -. g0.m_major;
    promoted_words = g1.m_promoted -. g0.m_promoted;
    minor_collections = g1.m_minor_collections - g0.m_minor_collections;
    major_collections = g1.m_major_collections - g0.m_major_collections }

let add_metric name v =
  if !enabled_flag then
    match (recorder ()).r_stack with
    | fr :: _ -> fr.f_metrics <- (name, v) :: fr.f_metrics
    | [] -> ()

let with_span name f =
  if not !enabled_flag then f ()
  else begin
    let r = recorder () in
    let fr =
      { f_name = name; f_start = now (); f_gc0 = gc_mark ();
        f_metrics = []; f_children = [] }
    in
    r.r_stack <- fr :: r.r_stack;
    let finish () =
      let stop = now () in
      let gc1 = gc_mark () in
      (* Pop down to (and including) our frame. Frames above it were
         abandoned — their [finish] never ran (an exception captured by an
         effect handler that dropped the continuation, or a similar
         non-local exit skipped their cleanup). Their *completed* children
         are real measurements, so instead of dropping them they are
         reparented to this span, the nearest surviving ancestor, in
         execution order. *)
      if List.memq fr r.r_stack then begin
        let rec pop orphans = function
          | top :: rest when top == fr -> (orphans, rest)
          | top :: rest -> pop (orphans @ List.rev top.f_children) rest
          | [] -> assert false
        in
        let orphans, rest = pop [] r.r_stack in
        r.r_stack <- rest;
        let sp =
          { name = fr.f_name; start_s = fr.f_start;
            duration_s = stop -. fr.f_start; tid = r.r_tid;
            gc = gc_delta fr.f_gc0 gc1;
            metrics = List.rev fr.f_metrics;
            children = List.rev fr.f_children @ orphans }
        in
        match r.r_stack with
        | parent :: _ -> parent.f_children <- sp :: parent.f_children
        | [] -> r.r_completed <- sp :: r.r_completed
      end
      else
        (* our frame is gone (mid-span reset): record the span as a root
           of the new trace and leave the stack alone *)
        r.r_completed <-
          { name = fr.f_name; start_s = fr.f_start;
            duration_s = stop -. fr.f_start; tid = r.r_tid;
            gc = gc_delta fr.f_gc0 gc1;
            metrics = List.rev fr.f_metrics;
            children = List.rev fr.f_children }
          :: r.r_completed
    in
    Fun.protect ~finally:finish f
  end

let roots () =
  match !(Domain.DLS.get slot_key) with
  | Some r -> List.rev r.r_completed
  | None -> []

(* Merged view: one forest per domain that recorded anything, sorted by
   tid. Reading other domains' buffers is safe once their work is done
   (the pool joins or idles before export). *)
let all_roots () =
  let rs = Mutex.protect registry_mutex (fun () -> !recorders) in
  List.filter_map
    (fun r ->
       match r.r_completed with
       | [] -> None
       | rev -> Some (r.r_tid, List.rev rev))
    rs
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let span_count () =
  let rec count sp =
    1 + List.fold_left (fun acc c -> acc + count c) 0 sp.children
  in
  List.fold_left
    (fun acc (_, roots) ->
       acc + List.fold_left (fun a sp -> a + count sp) 0 roots)
    0 (all_roots ())

let pp_words w =
  if w >= 1e9 then Printf.sprintf "%.1fGw" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let pp_tree ppf () =
  let rec pp depth parent_s sp =
    let share =
      if parent_s > 0.0 then
        Printf.sprintf " (%.0f%%)" (100.0 *. sp.duration_s /. parent_s)
      else ""
    in
    let alloc = sp.gc.minor_words +. sp.gc.major_words in
    Format.fprintf ppf "%s%-*s %10.3f ms%s  alloc %s@."
      (String.make (2 * depth) ' ')
      (max 1 (32 - (2 * depth)))
      sp.name
      (sp.duration_s *. 1e3)
      share (pp_words alloc);
    List.iter (pp (depth + 1) sp.duration_s) sp.children
  in
  let groups = all_roots () in
  let multi = List.length groups > 1 in
  List.iter
    (fun (tid, roots) ->
       if multi then Format.fprintf ppf "-- domain %d --@." tid;
       List.iter (pp 0 0.0) roots)
    groups

let gc_json g =
  Json.Obj
    [ ("minor_words", Json.Float g.minor_words);
      ("major_words", Json.Float g.major_words);
      ("promoted_words", Json.Float g.promoted_words);
      ("minor_collections", Json.Int g.minor_collections);
      ("major_collections", Json.Int g.major_collections) ]

let rec span_json sp =
  Json.Obj
    [ ("name", Json.String sp.name);
      ("start_s", Json.Float sp.start_s);
      ("duration_s", Json.Float sp.duration_s);
      ("tid", Json.Int sp.tid);
      ("gc", gc_json sp.gc);
      ("metrics",
       Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) sp.metrics));
      ("children", Json.List (List.map span_json sp.children)) ]

let to_json () =
  Json.List
    (List.concat_map (fun (_, roots) -> List.map span_json roots)
       (all_roots ()))
