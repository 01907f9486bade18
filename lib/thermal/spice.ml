(* The conductance stencil holds, per row i: the diagonal (the sum of every
   conductance touching node i) and one negative offdiagonal -g_ij per
   neighbour. The grounded (boundary-to-ambient) conductance of node i is
   therefore diag(i) + sum of its (negative) offdiagonals. Expressing
   temperatures as rises over ambient turns the ambient voltage sources of
   the paper's netlist into plain ground, so the export is resistors,
   grounded resistors and current sources only. *)

let to_string ?(title = "thermoplace thermal network (steady state)")
    problem =
  Obs.Trace.with_span "thermal.spice.export" @@ fun () ->
  let m = Mesh.stencil problem in
  let rhs = Mesh.rhs problem in
  let n = Stencil.dim m in
  let buf = Buffer.create (n * 64) in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "* %s\n" title;
  pr "* nodes: %d; V = temperature rise [K], I = power [W], R = [K/W]\n" n;
  for i = 0 to n - 1 do
    let ground = ref 0.0 in
    Stencil.iter_row m i ~f:(fun j v ->
        ground := !ground +. v;
        (* emit each coupling once, from the lower-numbered node *)
        if j > i && v < 0.0 then
          pr "R%d_%d n%d n%d %.9g\n" i j i j (1.0 /. -.v));
    if !ground > 1e-15 then pr "RG%d n%d 0 %.9g\n" i i (1.0 /. !ground)
  done;
  Array.iteri
    (fun i w -> if w <> 0.0 then pr "I%d 0 n%d %.9g\n" i i w)
    rhs;
  pr ".op\n.end\n";
  Buffer.contents buf

let count_resistors problem =
  let s = to_string problem in
  let count = ref 0 in
  String.split_on_char '\n' s
  |> List.iter (fun line ->
      if String.length line > 0 && line.[0] = 'R' then incr count);
  !count

let write_file path ?title problem =
  let oc = open_out path in
  (try output_string oc (to_string ?title problem)
   with e -> close_out oc; raise e);
  close_out oc
