module P = Place.Placement

let grid_values g =
  let nx = Geo.Grid.nx g and ny = Geo.Grid.ny g in
  let a = Array.make (nx * ny) 0.0 in
  Geo.Grid.iteri g ~f:(fun ~ix ~iy v -> a.((iy * nx) + ix) <- v);
  a

let placement pl =
  Robust.Validate.make "placement.legal" (fun () ->
      match P.validate pl with
      | [] -> Ok ()
      | violations ->
        let n = List.length violations in
        let shown =
          List.filteri (fun i _ -> i < 3) violations
          |> List.map (fun v -> Format.asprintf "%a" P.pp_violation v)
          |> String.concat "; "
        in
        Error
          (Printf.sprintf "%d violation(s): %s%s" n shown
             (if n > 3 then "; ..." else "")))

(* Geometric double-check of what [P.validate] asserts in row/site space:
   every cell rectangle lies inside the core. Catches disagreements
   between the two coordinate systems (row_y / site_x arithmetic). *)
let floorplan pl =
  Robust.Validate.make "floorplan.containment" (fun () ->
      let core = pl.P.fp.Place.Floorplan.core in
      let eps = 1e-6 in
      let n = Array.length pl.P.locs in
      let rec go cid =
        if cid >= n then Ok ()
        else begin
          let r = P.cell_rect pl cid in
          if r.Geo.Rect.lx < core.Geo.Rect.lx -. eps
             || r.Geo.Rect.ly < core.Geo.Rect.ly -. eps
             || r.Geo.Rect.hx > core.Geo.Rect.hx +. eps
             || r.Geo.Rect.hy > core.Geo.Rect.hy +. eps
          then
            Error
              (Printf.sprintf "cell %d at %s escapes core %s" cid
                 (Geo.Rect.to_string r) (Geo.Rect.to_string core))
          else go (cid + 1)
        end
      in
      go 0)

let power_map g =
  Robust.Validate.make "power.finite_nonneg" (fun () ->
      Robust.Validate.non_negative ~eps:0.0 ~what:"power" (grid_values g))

let mesh_matrix m =
  Robust.Validate.make "mesh.spd_structure" (fun () ->
      let exception Bad of string in
      try
        for i = 0 to Thermal.Stencil.dim m - 1 do
          let d = ref 0.0 and rs = ref 0.0 in
          Thermal.Stencil.iter_row m i ~f:(fun j v ->
              if j = i then d := v;
              rs := !rs +. Float.abs v);
          let d = !d and rs = !rs in
          if not (Float.is_finite d) || d <= 0.0 then
            raise (Bad (Printf.sprintf "diagonal[%d] = %g (must be > 0)" i d));
          (* resistive nodal matrix: |off-diagonals| of a row never exceed
             the diagonal (strictly less wherever a boundary conductance
             grounds the node), i.e. d + sum|offdiag| <= 2d *)
          if rs > 2.0 *. d *. (1.0 +. 1e-9) then
            raise
              (Bad
                 (Printf.sprintf
                    "row %d not diagonally dominant (|row| = %g, diag = %g)"
                    i rs d));
          Thermal.Stencil.iter_row m i ~f:(fun j v ->
              if not (Float.is_finite v) then
                raise (Bad (Printf.sprintf "entry (%d,%d) = %g" i j v)))
        done;
        Ok ()
      with Bad detail -> Error detail)

let temperature ?(max_rise_k = 1000.0) g =
  Robust.Validate.make "thermal.bounded" (fun () ->
      Robust.Validate.within ~what:"temperature rise" ~lo:(-1e-6)
        ~hi:max_rise_k (grid_values g))
