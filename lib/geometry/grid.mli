(** Dense 2-D scalar field over a regular tiling of a physical rectangle.

    Used for power-density maps, thermal maps and congestion maps. The grid
    tiles a rectangle [extent] into [nx * ny] equal tiles; tile (0,0) is the
    lower-left one. *)

type t

val create : nx:int -> ny:int -> extent:Rect.t -> t
(** Fresh all-zero field. [nx] and [ny] must be positive. *)

val of_array : nx:int -> ny:int -> extent:Rect.t -> float array -> t
(** The grid whose tile (ix, iy) is [data.(iy * nx + ix)]. [data] is taken
    over, not copied; its length must be [nx * ny]. *)

val nx : t -> int
val ny : t -> int
val extent : t -> Rect.t

val tile_width : t -> float
val tile_height : t -> float
val tile_area : t -> float

val get : t -> ix:int -> iy:int -> float
val set : t -> ix:int -> iy:int -> float -> unit
val add : t -> ix:int -> iy:int -> float -> unit

val tile_rect : t -> ix:int -> iy:int -> Rect.t
(** Physical footprint of a tile. *)

val tile_of_point : t -> x:float -> y:float -> (int * int) option
(** Tile containing a point, when the point lies within the extent. *)

val deposit : t -> Rect.t -> float -> unit
(** [deposit t r v] spreads the quantity [v] over the tiles overlapping [r],
    proportionally to overlap area (the paper's standard-cell to thermal-cell
    binning). Quantities falling outside the extent are dropped. *)

val total : t -> float
val max_value : t -> float
val min_value : t -> float
val argmax : t -> int * int
val mean : t -> float

val map : t -> f:(float -> float) -> t
val map2 : t -> t -> f:(float -> float -> float) -> t
(** Pointwise combination; both grids must have identical dimensions. *)

val iteri : t -> f:(ix:int -> iy:int -> float -> unit) -> unit
val fold : t -> init:'a -> f:('a -> float -> 'a) -> 'a
val copy : t -> t

val of_function : nx:int -> ny:int -> extent:Rect.t ->
  f:(ix:int -> iy:int -> float) -> t

val pp_rows : Format.formatter -> t -> unit
(** Gnuplot-style matrix dump: [ny] lines of [nx] values, top row first. *)

val pp_shaded : Format.formatter -> t -> unit
(** Terminal heat-map: one character per tile (top row first), density ramp
    from ' ' (minimum) to '@' (maximum). Handy for eyeballing power and
    thermal profiles in examples and the CLI. *)
