type t = {
  nx : int;
  ny : int;
  extent : Rect.t;
  data : float array;
}

let of_array ~nx ~ny ~extent data =
  assert (nx > 0 && ny > 0);
  assert (Rect.area extent > 0.0 && Array.length data = nx * ny);
  { nx; ny; extent; data }

let create ~nx ~ny ~extent =
  of_array ~nx ~ny ~extent (Array.make (nx * ny) 0.0)

let nx t = t.nx
let ny t = t.ny
let extent t = t.extent

let tile_width t = Rect.width t.extent /. float_of_int t.nx
let tile_height t = Rect.height t.extent /. float_of_int t.ny
let tile_area t = tile_width t *. tile_height t

let index t ~ix ~iy =
  assert (ix >= 0 && ix < t.nx && iy >= 0 && iy < t.ny);
  (iy * t.nx) + ix

let get t ~ix ~iy = t.data.(index t ~ix ~iy)
let set t ~ix ~iy v = t.data.(index t ~ix ~iy) <- v
let add t ~ix ~iy v = t.data.(index t ~ix ~iy) <- t.data.(index t ~ix ~iy) +. v

let tile_rect t ~ix ~iy =
  let w = tile_width t and h = tile_height t in
  let e = t.extent in
  Rect.of_corner
    ~x:(e.Rect.lx +. (float_of_int ix *. w))
    ~y:(e.Rect.ly +. (float_of_int iy *. h))
    ~w ~h

let tile_of_point t ~x ~y =
  if Rect.contains t.extent ~x ~y then begin
    let ix = int_of_float ((x -. t.extent.Rect.lx) /. tile_width t) in
    let iy = int_of_float ((y -. t.extent.Rect.ly) /. tile_height t) in
    let ix = min ix (t.nx - 1) and iy = min iy (t.ny - 1) in
    Some (ix, iy)
  end else None

(* Only the tiles whose index range overlaps [r] are visited, so depositing a
   standard-cell footprint costs O(1) for cells smaller than a tile. *)
let deposit t r v =
  match Rect.intersection r t.extent with
  | None -> ()
  | Some r ->
    let covered = Rect.area r in
    if covered > 0.0 && v <> 0.0 then begin
      let w = tile_width t and h = tile_height t in
      let e = t.extent in
      let ix0 = max 0 (int_of_float ((r.Rect.lx -. e.Rect.lx) /. w)) in
      let iy0 = max 0 (int_of_float ((r.Rect.ly -. e.Rect.ly) /. h)) in
      let ix1 = min (t.nx - 1) (int_of_float ((r.Rect.hx -. e.Rect.lx) /. w)) in
      let iy1 = min (t.ny - 1) (int_of_float ((r.Rect.hy -. e.Rect.ly) /. h)) in
      for iy = iy0 to iy1 do
        for ix = ix0 to ix1 do
          let ov = Rect.overlap_area r (tile_rect t ~ix ~iy) in
          if ov > 0.0 then add t ~ix ~iy (v *. ov /. covered)
        done
      done
    end

let total t = Array.fold_left ( +. ) 0.0 t.data

let max_value t = Array.fold_left Float.max neg_infinity t.data
let min_value t = Array.fold_left Float.min infinity t.data

let argmax t =
  let best = ref 0 in
  for i = 1 to Array.length t.data - 1 do
    if t.data.(i) > t.data.(!best) then best := i
  done;
  (!best mod t.nx, !best / t.nx)

let mean t = total t /. float_of_int (t.nx * t.ny)

let map t ~f = { t with data = Array.map f t.data }

let map2 a b ~f =
  assert (a.nx = b.nx && a.ny = b.ny);
  { a with data = Array.init (Array.length a.data)
                    (fun i -> f a.data.(i) b.data.(i)) }

let iteri t ~f =
  for iy = 0 to t.ny - 1 do
    for ix = 0 to t.nx - 1 do
      f ~ix ~iy (get t ~ix ~iy)
    done
  done

let fold t ~init ~f = Array.fold_left f init t.data

let copy t = { t with data = Array.copy t.data }

let of_function ~nx ~ny ~extent ~f =
  let t = create ~nx ~ny ~extent in
  iteri t ~f:(fun ~ix ~iy _ -> set t ~ix ~iy (f ~ix ~iy));
  t

let pp_rows ppf t =
  for iy = t.ny - 1 downto 0 do
    for ix = 0 to t.nx - 1 do
      if ix > 0 then Format.pp_print_char ppf ' ';
      Format.fprintf ppf "%.6g" (get t ~ix ~iy)
    done;
    Format.pp_print_newline ppf ()
  done

let shade_ramp = " .:-=+*#%@"

let pp_shaded ppf t =
  let lo = min_value t and hi = max_value t in
  let span = if hi > lo then hi -. lo else 1.0 in
  let levels = String.length shade_ramp in
  for iy = t.ny - 1 downto 0 do
    for ix = 0 to t.nx - 1 do
      let v = (get t ~ix ~iy -. lo) /. span in
      let k = min (levels - 1) (int_of_float (v *. float_of_int levels)) in
      Format.pp_print_char ppf shade_ramp.[k]
    done;
    Format.pp_print_newline ppf ()
  done
