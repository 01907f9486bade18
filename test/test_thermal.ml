(* Tests for the thermal substrate: the stencil operator, conjugate
   gradients, the material stack, the mesh and its solutions. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* The dense Cholesky oracle: factor [m] and solve [m x = b]. *)
let dense_solve m b =
  let x = Array.make (Array.length b) 0.0 in
  Thermal.Dense.solve_into (Thermal.Dense.of_stencil m) b x;
  x

(* The iterative reference: Jacobi-CG on the problem's own stencil, to
   {!Thermal.Cg.default_tol} from a zero start, as a mesh solution. It
   shares no transform with the modal engine or the blur. *)
let jacobi_solution p =
  let out =
    Thermal.Cg.solve (Thermal.Mesh.stencil p) ~b:(Thermal.Mesh.rhs p) ()
  in
  { Thermal.Mesh.config = Thermal.Mesh.config p;
    extent = Thermal.Mesh.extent p; temp = out.Thermal.Cg.x;
    cg_iterations = out.Thermal.Cg.iterations;
    cg_residual = out.Thermal.Cg.residual; cg_rungs = [] }

(* An [n]-cell chain: coupling [g] between neighbours (matrix entry -g),
   diagonal [d] except [first] on cell 0. Two cells give any symmetric
   2x2 matrix. *)
let chain ?first ~d ~g n =
  Thermal.Stencil.make ~nx:n ~ny:1 ~gx:[| g |] ~gy:[| 0.0 |] ~gz:[||]
    ~diag:(fun ~xc ~yc:_ ~iz:_ ->
        match first with Some f when xc land 1 = 0 -> f | _ -> d)

(* Entry (i, j) of a stencil, 0.0 when absent. *)
let entry m i j =
  let v = ref 0.0 in
  Thermal.Stencil.iter_row m i ~f:(fun c x -> if c = j then v := x);
  !v

(* --- sparse operator ------------------------------------------------------------ *)

let test_sparse_mul_matches_dense () =
  let m = chain ~d:2.0 ~g:1.0 3 in
  Alcotest.(check int) "dim" 3 (Thermal.Stencil.dim m);
  let dense = [| [| 2.0; -1.0; 0.0 |];
                 [| -1.0; 2.0; -1.0 |];
                 [| 0.0; -1.0; 2.0 |] |] in
  Array.iteri
    (fun i row ->
       Array.iteri (fun j v -> check_float "entry" v (entry m i j)) row)
    dense;
  let x = [| 1.0; 2.0; 3.0 |] in
  let y = Array.make 3 0.0 in
  Thermal.Stencil.mul m x y;
  check_float "y0" 0.0 y.(0);
  check_float "y1" 0.0 y.(1);
  check_float "y2" 4.0 y.(2)

(* A diagonal entry collects every conductance touching its node: on a
   2x1x2 stack each node sums one lateral and one vertical coupling plus
   its face ground. *)
let test_sparse_duplicates_summed () =
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:100.0 ~h:50.0 in
  let stack =
    { Thermal.Stack.default_9layer with
      Thermal.Stack.layers =
        [| { Thermal.Stack.layer_name = "a"; thickness_um = 10.0;
             conductivity_w_mk = 2.0 };
           { Thermal.Stack.layer_name = "b"; thickness_um = 5.0;
             conductivity_w_mk = 100.0 } |];
      power_layer = 0 }
  in
  let m =
    Thermal.Mesh.stencil
      (Thermal.Mesh.build { Thermal.Mesh.nx = 2; ny = 1; stack }
         ~power:(Geo.Grid.create ~nx:2 ~ny:1 ~extent))
  in
  for i = 0 to 3 do
    let offdiag = ref 0.0 in
    Thermal.Stencil.iter_row m i ~f:(fun j v ->
        if j <> i then offdiag := !offdiag -. v);
    let face =
      if i < 2 then stack.Thermal.Stack.h_bottom_w_m2k
      else stack.Thermal.Stack.h_top_w_m2k
    in
    check_float ~eps:1e-12 (Printf.sprintf "diagonal %d" i)
      (!offdiag +. (face *. 50e-6 *. 50e-6))
      (entry m i i)
  done

let test_sparse_diagonal_and_get () =
  let m =
    Thermal.Stencil.make ~nx:3 ~ny:1 ~gx:[| 1.0 |] ~gy:[| 0.0 |] ~gz:[||]
      ~diag:(fun ~xc ~yc:_ ~iz:_ -> float_of_int (4 + xc))
  in
  (* classes: first cell 2, interior 3, last cell 1 *)
  Alcotest.(check (array (float 1e-12))) "diagonal" [| 6.0; 7.0; 5.0 |]
    (Thermal.Stencil.diagonal m);
  check_float "get offdiag" (-1.0) (entry m 0 1);
  check_float "get absent" 0.0 (entry m 0 2);
  let cols = ref [] in
  Thermal.Stencil.iter_row m 1 ~f:(fun j _ -> cols := j :: !cols);
  Alcotest.(check (list int)) "ascending columns" [ 0; 1; 2 ]
    (List.rev !cols);
  let shifted = Thermal.Stencil.shift m [| 0.5 |] in
  Alcotest.(check (array (float 1e-12))) "shifted diagonal"
    [| 6.5; 7.5; 5.5 |] (Thermal.Stencil.diagonal shifted);
  check_float "shift keeps couplings" (-1.0) (entry shifted 2 1)

let test_sparse_bounds () =
  let d ~xc:_ ~yc:_ ~iz:_ = 1.0 in
  (match
     Thermal.Stencil.make ~nx:2 ~ny:2 ~gx:[| 1.0; 1.0 |] ~gy:[| 1.0 |]
       ~gz:[| 1.0 |] ~diag:d
   with
   | _ -> Alcotest.fail "coupling arrays of mismatched length accepted"
   | exception Invalid_argument _ -> ());
  (match
     Thermal.Stencil.make ~nx:0 ~ny:2 ~gx:[| 1.0 |] ~gy:[| 1.0 |] ~gz:[||]
       ~diag:d
   with
   | _ -> Alcotest.fail "empty grid accepted"
   | exception Invalid_argument _ -> ());
  match Thermal.Stencil.mul (chain ~d:2.0 ~g:1.0 3) [| 1.0 |] [| 0.0 |] with
  | _ -> Alcotest.fail "dimension mismatch accepted"
  | exception Invalid_argument _ -> ()

(* --- cg ---------------------------------------------------------------------- *)

(* classic SPD tridiagonal system with known behaviour *)
let poisson_1d n = chain ~d:2.0 ~g:1.0 n

let test_cg_small_exact () =
  let m = chain ~first:4.0 ~d:3.0 ~g:(-1.0) 2 in
  let r = Thermal.Cg.solve m ~b:[| 1.0; 2.0 |] () in
  Alcotest.(check bool) "converged" true r.Thermal.Cg.converged;
  (* solution of [[4,1],[1,3]] x = [1,2]: x = [1/11, 7/11] *)
  check_float ~eps:1e-8 "x0" (1.0 /. 11.0) r.Thermal.Cg.x.(0);
  check_float ~eps:1e-8 "x1" (7.0 /. 11.0) r.Thermal.Cg.x.(1)

let test_cg_poisson_residual () =
  let n = 100 in
  let m = poisson_1d n in
  let rhs = Array.init n (fun i -> sin (float_of_int i /. 7.0)) in
  let r = Thermal.Cg.solve m ~b:rhs ~tol:1e-12 () in
  Alcotest.(check bool) "converged" true r.Thermal.Cg.converged;
  if r.Thermal.Cg.residual > 1e-10 then
    Alcotest.failf "residual %.2e too big" r.Thermal.Cg.residual;
  (* verify against a direct check: A x = rhs *)
  let ax = Array.make n 0.0 in
  Thermal.Stencil.mul m r.Thermal.Cg.x ax;
  Array.iteri (fun i v -> check_float ~eps:1e-8 "component" rhs.(i) v) ax

let test_cg_zero_rhs () =
  let m = poisson_1d 10 in
  let r = Thermal.Cg.solve m ~b:(Array.make 10 0.0) () in
  Alcotest.(check bool) "trivially converged" true r.Thermal.Cg.converged;
  Alcotest.(check int) "no iterations" 0 r.Thermal.Cg.iterations;
  Array.iter (fun v -> check_float "zero solution" 0.0 v) r.Thermal.Cg.x

let test_cg_rejects_bad_diagonal () =
  (* row 1 has an empty diagonal *)
  let m = chain ~first:1.0 ~d:0.0 ~g:(-1.0) 2 in
  (match Thermal.Cg.solve m ~b:[| 1.0; 1.0 |] () with
   | _ -> Alcotest.fail "zero diagonal accepted"
   | exception Invalid_argument _ -> ())

let test_cg_telemetry () =
  (* every solve must land in the Obs registry: a solves counter plus one
     histogram sample each for iterations and residual *)
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Obs.Log.reset ();
  Obs.Log.set_handler None;
  Fun.protect
    ~finally:(fun () -> Obs.Log.set_handler (Some Obs.Log.default_handler))
    (fun () ->
       let m = poisson_1d 50 in
       let rhs = Array.init 50 (fun i -> float_of_int (i mod 3)) in
       let r1 = Thermal.Cg.solve m ~b:rhs () in
       let r2 = Thermal.Cg.solve m ~b:rhs () in
       Alcotest.(check (option int)) "solves counted" (Some 2)
         (Obs.Metrics.counter_value "thermal.cg.solves");
       (match Obs.Metrics.histogram "thermal.cg.iterations" with
        | None -> Alcotest.fail "iterations histogram missing"
        | Some h ->
          Alcotest.(check (list (float 0.0))) "one sample per solve"
            [ float_of_int r1.Thermal.Cg.iterations;
              float_of_int r2.Thermal.Cg.iterations ]
            h.Obs.Metrics.samples);
       (match Obs.Metrics.histogram "thermal.cg.residual" with
        | None -> Alcotest.fail "residual histogram missing"
        | Some h ->
          Alcotest.(check int) "residual sample count" 2
            h.Obs.Metrics.count;
          check_float ~eps:1e-15 "last residual recorded"
            r2.Thermal.Cg.residual h.Obs.Metrics.last);
       (* a capped solve must flag non-convergence and warn *)
       let capped = Thermal.Cg.solve m ~b:rhs ~tol:1e-300 ~max_iter:1 () in
       Alcotest.(check bool) "capped solve not converged" false
         capped.Thermal.Cg.converged;
       Alcotest.(check (option int)) "non-convergence counted" (Some 1)
         (Obs.Metrics.counter_value "thermal.cg.nonconverged");
       Alcotest.(check int) "warning retained" 1
         (List.length (Obs.Log.warnings ())))

(* --- stack ------------------------------------------------------------------- *)

let test_stack_default_valid () =
  let s = Thermal.Stack.default_9layer in
  (match Thermal.Stack.validate s with
   | Ok () -> ()
   | Error e -> Alcotest.failf "default stack invalid: %s" e);
  Alcotest.(check int) "nine layers" 9 (Thermal.Stack.num_layers s);
  Alcotest.(check bool) "power layer is silicon" true
    (s.Thermal.Stack.layers.(s.Thermal.Stack.power_layer)
       .Thermal.Stack.conductivity_w_mk
     > 50.0);
  Alcotest.(check bool) "thickness positive" true
    (Thermal.Stack.total_thickness_um s > 0.0)

let test_stack_validation_errors () =
  let s = Thermal.Stack.default_9layer in
  let bad1 = { s with Thermal.Stack.power_layer = 99 } in
  (match Thermal.Stack.validate bad1 with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "bad power layer accepted");
  let bad2 =
    { s with Thermal.Stack.h_top_w_m2k = 0.0; h_bottom_w_m2k = 0.0 }
  in
  (match Thermal.Stack.validate bad2 with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "adiabatic stack accepted")

let test_stack_with_sink () =
  let s = Thermal.Stack.with_sink Thermal.Stack.default_9layer
      ~h_top_w_m2k:123.0 in
  check_float "h replaced" 123.0 s.Thermal.Stack.h_top_w_m2k

(* --- mesh ---------------------------------------------------------------------- *)

let uniform_power ~nx ~ny ~total =
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:200.0 ~h:200.0 in
  let g = Geo.Grid.create ~nx ~ny ~extent in
  let per = total /. float_of_int (nx * ny) in
  Geo.Grid.iteri g ~f:(fun ~ix ~iy _ -> Geo.Grid.set g ~ix ~iy per);
  g

let test_mesh_requires_matching_grid () =
  let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = 8; ny = 8 } in
  let power = uniform_power ~nx:4 ~ny:4 ~total:1.0 in
  (match Thermal.Mesh.build cfg ~power with
   | _ -> Alcotest.fail "grid mismatch accepted"
   | exception Invalid_argument _ -> ())

let small_cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = 10; ny = 10 }

let test_mesh_linearity () =
  let p1 = uniform_power ~nx:10 ~ny:10 ~total:0.01 in
  let p2 = uniform_power ~nx:10 ~ny:10 ~total:0.02 in
  let s1 = Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:p1) in
  let s2 = Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:p2) in
  let m1 = Thermal.Metrics.of_map (Thermal.Mesh.active_layer_grid s1) in
  let m2 = Thermal.Metrics.of_map (Thermal.Mesh.active_layer_grid s2) in
  check_float ~eps:1e-6 "2x power -> 2x rise"
    (2.0 *. m1.Thermal.Metrics.peak_rise_k)
    m2.Thermal.Metrics.peak_rise_k

let test_mesh_energy_balance () =
  (* At steady state the heat extracted through the boundary equals the heat
     injected: sum over nodes of (boundary conductance * T) = total power.
     Because G T = P and the interior rows sum to zero, sum(P) must equal
     sum over boundary terms; we verify via the matrix: sum_i (G T)_i =
     sum_i P_i and all interior row sums vanish, so checking the residual
     of the solve at tight tolerance covers conservation. Here we verify
     sum(G T) = sum(P) directly. *)
  let p = uniform_power ~nx:10 ~ny:10 ~total:0.05 in
  let problem = Thermal.Mesh.build small_cfg ~power:p in
  let s = Thermal.Mesh.solve problem in
  let m = Thermal.Mesh.stencil problem in
  let gt = Array.make (Thermal.Stencil.dim m) 0.0 in
  Thermal.Stencil.mul m s.Thermal.Mesh.temp gt;
  let extracted = Array.fold_left ( +. ) 0.0 gt in
  check_float ~eps:1e-6 "energy conserved" 0.05 extracted

let test_mesh_symmetry () =
  (* a centered power blob on a symmetric die gives an x-mirror-symmetric
     temperature map *)
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:200.0 ~h:200.0 in
  let g = Geo.Grid.create ~nx:10 ~ny:10 ~extent in
  Geo.Grid.set g ~ix:4 ~iy:5 0.005;
  Geo.Grid.set g ~ix:5 ~iy:5 0.005;
  let s = Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:g) in
  let tm = Thermal.Mesh.active_layer_grid s in
  for iy = 0 to 9 do
    for ix = 0 to 4 do
      check_float ~eps:1e-8
        (Printf.sprintf "mirror (%d,%d)" ix iy)
        (Geo.Grid.get tm ~ix ~iy)
        (Geo.Grid.get tm ~ix:(9 - ix) ~iy)
    done
  done

let test_mesh_hotspot_is_local () =
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:200.0 ~h:200.0 in
  let g = Geo.Grid.create ~nx:10 ~ny:10 ~extent in
  Geo.Grid.set g ~ix:2 ~iy:2 0.01;
  let s = Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:g) in
  let tm = Thermal.Mesh.active_layer_grid s in
  let near = Geo.Grid.get tm ~ix:2 ~iy:2 in
  let far = Geo.Grid.get tm ~ix:9 ~iy:9 in
  Alcotest.(check bool)
    (Printf.sprintf "hot %.3f > 1.5x far %.3f" near far)
    true (near > 1.5 *. far);
  let ix, iy = Geo.Grid.argmax tm in
  Alcotest.(check (pair int int)) "peak at the source" (2, 2) (ix, iy)

let test_mesh_stronger_sink_cools () =
  let p = uniform_power ~nx:10 ~ny:10 ~total:0.02 in
  let hot_cfg = small_cfg in
  let cool_cfg =
    { small_cfg with
      Thermal.Mesh.stack =
        Thermal.Stack.with_sink small_cfg.Thermal.Mesh.stack
          ~h_top_w_m2k:
            (2.0 *. small_cfg.Thermal.Mesh.stack.Thermal.Stack.h_top_w_m2k) }
  in
  let s1 = Thermal.Mesh.solve (Thermal.Mesh.build hot_cfg ~power:p) in
  let s2 = Thermal.Mesh.solve (Thermal.Mesh.build cool_cfg ~power:p) in
  let peak s =
    (Thermal.Metrics.of_map (Thermal.Mesh.active_layer_grid s))
      .Thermal.Metrics.peak_rise_k
  in
  Alcotest.(check bool) "stronger sink lowers peak" true (peak s2 < peak s1)

let test_mesh_vertical_profile () =
  (* temperature decreases monotonically from the active layer toward the
     heat sink when the sink dominates extraction *)
  let p = uniform_power ~nx:10 ~ny:10 ~total:0.02 in
  let s = Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:p) in
  let mean_at iz = Geo.Grid.mean (Thermal.Mesh.layer_grid s ~iz) in
  let zp = small_cfg.Thermal.Mesh.stack.Thermal.Stack.power_layer in
  let nz = Thermal.Stack.num_layers small_cfg.Thermal.Mesh.stack in
  let prev = ref (mean_at zp) in
  for iz = zp + 1 to nz - 1 do
    let t = mean_at iz in
    Alcotest.(check bool)
      (Printf.sprintf "layer %d cooler than %d" iz (iz - 1))
      true (t < !prev);
    prev := t
  done

let test_mesh_1d_analytic () =
  (* Uniform power with a uniform lateral profile behaves like a 1-D
     thermal resistance chain: rise at the active layer ~=
     q * (1/h_top + sum of t/k above the active layer + half the active
     layer itself). We verify within 5 %. *)
  let stack = Thermal.Stack.default_9layer in
  let total = 0.02 in
  let p = uniform_power ~nx:10 ~ny:10 ~total in
  let s = Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:p) in
  let tm = Thermal.Mesh.active_layer_grid s in
  (* ignore edges: take the center tile (no side heat-loss assumed) *)
  let got = Geo.Grid.get tm ~ix:5 ~iy:5 in
  let area_m2 = 200e-6 *. 200e-6 in
  let q = total /. area_m2 in
  let r_above =
    let acc = ref (1.0 /. stack.Thermal.Stack.h_top_w_m2k) in
    let zp = stack.Thermal.Stack.power_layer in
    Array.iteri
      (fun i (l : Thermal.Stack.layer) ->
         let t_m = l.Thermal.Stack.thickness_um *. 1e-6 in
         if i > zp then acc := !acc +. (t_m /. l.Thermal.Stack.conductivity_w_mk)
         else if i = zp then
           acc := !acc +. (t_m /. 2.0 /. l.Thermal.Stack.conductivity_w_mk))
      stack.Thermal.Stack.layers;
    !acc
  in
  let expected = q *. r_above in
  if Float.abs (got -. expected) /. expected > 0.05 then
    Alcotest.failf "1-D analytic mismatch: got %.4f, expected %.4f" got
      expected

let test_mesh_solve_options_threaded () =
  let p = uniform_power ~nx:10 ~ny:10 ~total:0.02 in
  (* a stall on the first CG attempt and on its cold retry exhausts the
     one recovery path and surfaces as a structured error *)
  match
    Robust.Faults.with_fault ~times:2 Robust.Faults.Cg_stall (fun () ->
        Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:p))
  with
  | _ -> Alcotest.fail "stalled solve did not fail"
  | exception
      Robust.Error.Error (Robust.Error.Solver_diverged { rungs; _ }) ->
    Alcotest.(check (list string)) "attempt and retry"
      [ "requested"; "restart" ] rungs

(* A mesh solve is modal: no CG history entry, one
   [thermal.modal.solves], no iteration and a measured residual. An
   armed [Cg_stall] routes it to Jacobi-CG: the history ring reads the
   stalled attempt and its cold retry, and no modal solve runs.
   [Kill_worker] aims at the pool, not the solve, so it leaves the solve
   modal. *)
let test_mesh_default_is_modal () =
  Obs.Metrics.set_enabled true;
  let p = uniform_power ~nx:10 ~ny:10 ~total:0.02 in
  let labels () =
    List.map (fun h -> h.Thermal.Cg.h_label) (Thermal.Cg.recent_histories ())
  in
  let modal_solves () =
    Option.value ~default:0
      (Obs.Metrics.counter_value "thermal.modal.solves")
  in
  Obs.Metrics.reset ();
  Thermal.Cg.clear_histories ();
  let problem = Thermal.Mesh.build small_cfg ~power:p in
  let s = Thermal.Mesh.solve problem in
  Alcotest.(check (list string)) "no CG history" [] (labels ());
  Alcotest.(check int) "one modal solve" 1 (modal_solves ());
  Alcotest.(check int) "no CG iteration" 0 s.Thermal.Mesh.cg_iterations;
  Alcotest.(check (list string)) "no rung" [] s.Thermal.Mesh.cg_rungs;
  (* the residual is ||b - A x|| / ||b|| of the returned field *)
  let b = Thermal.Mesh.rhs problem in
  let ax = Array.make (Array.length b) 0.0 in
  Thermal.Stencil.mul (Thermal.Mesh.stencil problem) s.Thermal.Mesh.temp ax;
  let norm a = sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 a) in
  let measured = norm (Array.mapi (fun i v -> v -. ax.(i)) b) /. norm b in
  check_float ~eps:1e-20 "residual is measured" measured
    s.Thermal.Mesh.cg_residual;
  Alcotest.(check bool)
    (Printf.sprintf "residual %.3g in (0, 1e-10]" s.Thermal.Mesh.cg_residual)
    true
    (s.Thermal.Mesh.cg_residual > 0.0 && s.Thermal.Mesh.cg_residual <= 1e-10);
  Obs.Metrics.reset ();
  Thermal.Cg.clear_histories ();
  let stalled =
    Robust.Faults.with_fault Robust.Faults.Cg_stall (fun () ->
        Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:p))
  in
  Alcotest.(check (list string)) "armed cg_stall: the attempt, then the retry"
    [ "jacobi"; "esc:restart" ] (labels ());
  Alcotest.(check int) "armed cg_stall: no modal solve" 0 (modal_solves ());
  Alcotest.(check (list string)) "armed cg_stall: recovered" [ "restart" ]
    stalled.Thermal.Mesh.cg_rungs;
  Obs.Metrics.reset ();
  Thermal.Cg.clear_histories ();
  let pooled =
    Robust.Faults.with_fault Robust.Faults.Kill_worker (fun () ->
        Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:p))
  in
  Alcotest.(check (list string)) "armed kill_worker: no CG history" []
    (labels ());
  Alcotest.(check int) "armed kill_worker: one modal solve" 1
    (modal_solves ());
  Alcotest.(check bool) "armed kill_worker: the clean field" true
    (pooled.Thermal.Mesh.temp = s.Thermal.Mesh.temp)

(* --- dense direct solver ------------------------------------------------------ *)

let test_dense_matches_cg () =
  let m = poisson_1d 60 in
  let rhs = Array.init 60 (fun i -> cos (float_of_int i /. 3.0)) in
  let x_direct = dense_solve m rhs in
  let x_cg = (Thermal.Cg.solve m ~b:rhs ~tol:1e-13 ()).Thermal.Cg.x in
  Array.iteri
    (fun i v -> check_float ~eps:1e-8 "component" v x_cg.(i))
    x_direct

let test_dense_cross_checks_mesh () =
  (* the production (modal) solve against the direct factorization on a
     real (small) thermal matrix *)
  let p = uniform_power ~nx:6 ~ny:6 ~total:0.01 in
  let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = 6; ny = 6 } in
  let problem = Thermal.Mesh.build cfg ~power:p in
  let m = Thermal.Mesh.stencil problem in
  let x_direct = dense_solve m (Thermal.Mesh.rhs problem) in
  let s = Thermal.Mesh.solve problem in
  Array.iteri
    (fun i v ->
       if Float.abs (v -. s.Thermal.Mesh.temp.(i))
          > 1e-8 *. (1.0 +. Float.abs v)
       then Alcotest.failf "node %d: direct %g vs solve %g" i v
           s.Thermal.Mesh.temp.(i))
    x_direct

let test_dense_rejects_indefinite () =
  let m = chain ~d:1.0 ~g:(-5.0) 2 in
  (match Thermal.Dense.of_stencil m with
   | _ -> Alcotest.fail "indefinite matrix accepted"
   | exception Failure _ -> ())

(* A deliberately lopsided power map: two unequal hotspots on a warm
   background (for the adjoint, the softmax objective then spreads
   non-trivial weight over several tiles). *)
let lopsided_power ~nx ~ny ~total =
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:200.0 ~h:200.0 in
  let g = Geo.Grid.create ~nx ~ny ~extent in
  let base = 0.2 *. total /. float_of_int (nx * ny) in
  Geo.Grid.iteri g ~f:(fun ~ix ~iy _ -> Geo.Grid.set g ~ix ~iy base);
  Geo.Grid.add g ~ix:(nx / 4) ~iy:(ny / 4) (0.5 *. total);
  Geo.Grid.add g ~ix:(3 * nx / 4) ~iy:(3 * ny / 4) (0.3 *. total);
  g

(* --- transient ------------------------------------------------------------------ *)

let test_transient_approaches_steady_state () =
  let p = uniform_power ~nx:8 ~ny:8 ~total:0.02 in
  let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = 8; ny = 8 } in
  let r = Thermal.Transient.step_response cfg ~power:p ~dt_s:2e-5 ~steps:80 () in
  let final = r.Thermal.Transient.peak_rise_k.(80) in
  (* monotone heating from ambient *)
  for k = 1 to 80 do
    if r.Thermal.Transient.peak_rise_k.(k)
       < r.Thermal.Transient.peak_rise_k.(k - 1) -. 1e-9
    then Alcotest.fail "cooling during a heating step response"
  done;
  Alcotest.(check bool) "stays below steady state" true
    (final <= r.Thermal.Transient.steady_peak_k *. (1.0 +. 1e-6));
  Alcotest.(check bool) "gets most of the way there" true
    (final > 0.5 *. r.Thermal.Transient.steady_peak_k)

let test_transient_time_constant_validates_paper () =
  (* the paper's justification for steady-state analysis: the thermal time
     constant is orders of magnitude above the 1 ns clock period *)
  let p = uniform_power ~nx:8 ~ny:8 ~total:0.02 in
  let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = 8; ny = 8 } in
  let r = Thermal.Transient.step_response cfg ~power:p ~dt_s:2e-5 ~steps:80 () in
  let clock_period_s = 1e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "tau %.3e s >> 1 ns" r.Thermal.Transient.tau_63_s)
    true
    (r.Thermal.Transient.tau_63_s > 1000.0 *. clock_period_s)

let test_transient_validation () =
  let p = uniform_power ~nx:4 ~ny:4 ~total:0.01 in
  let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = 4; ny = 4 } in
  (match Thermal.Transient.step_response cfg ~power:p ~dt_s:0.0 () with
   | _ -> Alcotest.fail "dt=0 accepted"
   | exception Invalid_argument _ -> ())

let test_transient_flat_tau_is_finite () =
  (* regression: a flat step at the 63% crossing used to divide 0/0 and
     report a NaN time constant. The all-zero power map is the extreme
     case: every peak is 0, the target is 0, and the very first step
     "crosses" with zero slope. *)
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:200.0 ~h:200.0 in
  let p = Geo.Grid.create ~nx:8 ~ny:8 ~extent in
  let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = 8; ny = 8 } in
  let r =
    Thermal.Transient.step_response cfg ~power:p ~dt_s:2e-5 ~steps:20 ()
  in
  Alcotest.(check bool) "tau finite on a flat response" true
    (Float.is_finite r.Thermal.Transient.tau_63_s);
  check_float "flat response settles at zero rise" 0.0
    r.Thermal.Transient.steady_peak_k

(* Backward Euler written out against the dense Cholesky oracle on a
   6x6x9 stack: the shifted operator [G + C/dt] from the built problem's
   stencil and [Stencil.shift], factored once, stepped from ambient.
   [step_response]'s modal steps must follow it to 1e-9 of each
   instant's peak. *)
let test_transient_matches_backward_euler () =
  let nx = 6 and dt_s = 2e-5 and steps = 20 in
  let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = nx; ny = nx } in
  let power = lopsided_power ~nx ~ny:nx ~total:0.02 in
  let r = Thermal.Transient.step_response cfg ~power ~dt_s ~steps () in
  let tile_m2 =
    (Geo.Grid.tile_width power *. 1e-6) *. (Geo.Grid.tile_height power *. 1e-6)
  in
  let c_dt =
    Array.map
      (fun l ->
         Thermal.Transient.default_capacitance
           .Thermal.Transient.volumetric_heat_j_m3k
         *. tile_m2 *. (l.Thermal.Stack.thickness_um *. 1e-6) /. dt_s)
      cfg.Thermal.Mesh.stack.Thermal.Stack.layers
  in
  let problem = Thermal.Mesh.build cfg ~power in
  let chol =
    Thermal.Dense.of_stencil
      (Thermal.Stencil.shift (Thermal.Mesh.stencil problem) c_dt)
  in
  let p = Thermal.Mesh.rhs problem in
  let n = Array.length p in
  let temp = Array.make n 0.0 and rhs = Array.make n 0.0 in
  for k = 1 to steps do
    Array.iteri
      (fun i t -> rhs.(i) <- p.(i) +. (c_dt.(i / (nx * nx)) *. t))
      temp;
    Thermal.Dense.solve_into chol rhs temp;
    let want = Array.fold_left Float.max 0.0 temp in
    let got = r.Thermal.Transient.peak_rise_k.(k) in
    if Float.abs (got -. want) > 1e-9 *. want then
      Alcotest.failf "step %d: step_response %.15g vs backward Euler %.15g" k
        got want
  done

(* Random adiabatic stacks (1-6 layers, 8x8 to 16x16, random sinks and
   power): the step response never cools, and its last instant reaches
   the steady peak. The window is 16 steps of dt = 4 tau, tau being the
   column bound C (R_vertical + 1 / h_max) per unit area. It bounds the
   slowest time constant (the uniform mode's, an RC chain whose
   trace(G^-1 C) it bounds), so that mode decays by 5^-16 ~ 7e-12. *)
let prop_transient_reaches_steady =
  QCheck.Test.make ~name:"transient rises monotonically to the steady peak"
    ~count:20
    QCheck.(triple (int_range 8 16) (int_range 8 16) (int_range 0 100000))
    (fun (nx, ny, seed) ->
       let rng = Geo.Rng.create seed in
       let uniform lo hi = lo +. Geo.Rng.float rng (hi -. lo) in
       let log_uniform lo hi = exp (uniform (log lo) (log hi)) in
       let nz = 1 + Geo.Rng.int rng 6 in
       let layers =
         Array.init nz (fun i ->
             { Thermal.Stack.layer_name = Printf.sprintf "l%d" i;
               thickness_um = uniform 1.0 20.0;
               conductivity_w_mk = log_uniform 0.5 400.0 })
       in
       let h_top = log_uniform 1e2 1e6 in
       let h_bottom = if Geo.Rng.bool rng then 0.0 else log_uniform 1e2 1e6 in
       let stack =
         { Thermal.Stack.layers; power_layer = Geo.Rng.int rng nz;
           h_top_w_m2k = h_top; h_bottom_w_m2k = h_bottom }
       in
       let extent =
         Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:(uniform 50.0 400.0)
           ~h:(uniform 50.0 400.0)
       in
       let power = Geo.Grid.create ~nx ~ny ~extent in
       Geo.Grid.iteri power ~f:(fun ~ix ~iy _ ->
           Geo.Grid.set power ~ix ~iy (Geo.Rng.float rng 0.01));
       let sum f = Array.fold_left (fun a l -> a +. f l) 0.0 layers in
       let dz l = l.Thermal.Stack.thickness_um *. 1e-6 in
       let tau =
         sum (fun l ->
             Thermal.Transient.default_capacitance
               .Thermal.Transient.volumetric_heat_j_m3k *. dz l)
         *. (sum (fun l -> dz l /. l.Thermal.Stack.conductivity_w_mk)
             +. (1.0 /. Float.max h_top h_bottom))
       in
       let steps = 16 in
       let r =
         Thermal.Transient.step_response { Thermal.Mesh.nx; ny; stack } ~power
           ~dt_s:(4.0 *. tau) ~steps ()
       in
       let peaks = r.Thermal.Transient.peak_rise_k in
       let steady = r.Thermal.Transient.steady_peak_k in
       for k = 1 to steps do
         if peaks.(k) < peaks.(k - 1) -. (1e-9 *. steady) then
           QCheck.Test.fail_reportf "nz=%d %dx%d: peak fell %.15g -> %.15g \
                                     at step %d" nz nx ny peaks.(k - 1)
             peaks.(k) k
       done;
       if Float.abs (peaks.(steps) -. steady) > 1e-6 *. steady then
         QCheck.Test.fail_reportf "nz=%d %dx%d: final peak %.15g vs steady \
                                   %.15g" nz nx ny peaks.(steps) steady;
       true)

(* --- adjoint ------------------------------------------------------------------ *)

(* Central-difference validation through superposition: the system is
   linear, so T(P + s e_tile) = T0 + s u with u = G^-1 e_tile solved
   once, and the perturbed objective is evaluated *analytically* from the
   two fields. The solver error then enters the difference quotient
   linearly instead of divided by 2 eps, which is what makes a 1e-6
   relative match attainable (a naive re-solve per perturbation cannot
   beat ~1e-3: truncation and solver noise pull eps in opposite
   directions). *)
let fd_probe cfg problem (adj : Thermal.Adjoint.t) ~ix ~iy =
  let zp = cfg.Thermal.Mesh.stack.Thermal.Stack.power_layer in
  let n = Array.length adj.Thermal.Adjoint.lambda in
  let e = Array.make n 0.0 in
  e.(Thermal.Mesh.node_index cfg ~ix ~iy ~iz:zp) <- 1.0;
  let u = Thermal.Mesh.solve (Thermal.Mesh.with_rhs problem e) in
  let fwd = adj.Thermal.Adjoint.forward in
  let eps = 1e-5 in
  let shifted s =
    Thermal.Adjoint.smoothed_peak ~sharpness:adj.Thermal.Adjoint.sharpness
      { fwd with
        Thermal.Mesh.temp =
          Array.mapi
            (fun i t -> t +. (s *. u.Thermal.Mesh.temp.(i)))
            fwd.Thermal.Mesh.temp }
  in
  let fd = (shifted eps -. shifted (-.eps)) /. (2.0 *. eps) in
  let sens = Geo.Grid.get adj.Thermal.Adjoint.sensitivity ~ix ~iy in
  let rel = Float.abs (fd -. sens) /. Float.max (Float.abs fd) 1e-30 in
  if rel > 1e-6 then
    Alcotest.failf
      "tile (%d,%d): adjoint %.12g K/W vs central difference %.12g K/W \
       (relative %.3g > 1e-6)"
      ix iy sens fd rel

let fd_validate ~nx () =
  let cfg =
    { Thermal.Mesh.default_config with Thermal.Mesh.nx = nx; ny = nx }
  in
  let power = lopsided_power ~nx ~ny:nx ~total:0.05 in
  let problem = Thermal.Mesh.build cfg ~power in
  let adj = Thermal.Adjoint.solve problem in
  (* probe the most sensitive tile and a cool corner *)
  let hx, hy = Geo.Grid.argmax adj.Thermal.Adjoint.sensitivity in
  fd_probe cfg problem adj ~ix:hx ~iy:hy;
  fd_probe cfg problem adj ~ix:0 ~iy:0

let test_adjoint_fd_mg_8 () = fd_validate ~nx:8 ()

let test_adjoint_fd_mg_16 () = fd_validate ~nx:16 ()

let test_adjoint_fd_full_system () =
  (* the looser sanity check the superposition trick replaces: actually
     re-solve the perturbed system on both sides. Bounded by solver
     noise / (2 delta), so only ~1e-3 relative is meaningful here. *)
  let nx = 8 in
  let cfg =
    { Thermal.Mesh.default_config with Thermal.Mesh.nx = nx; ny = nx }
  in
  let power = lopsided_power ~nx ~ny:nx ~total:0.05 in
  let adj = Thermal.Adjoint.solve (Thermal.Mesh.build cfg ~power) in
  let ix, iy = Geo.Grid.argmax adj.Thermal.Adjoint.sensitivity in
  let delta = 1e-3 in
  let peak_with d =
    let p = Geo.Grid.copy power in
    Geo.Grid.add p ~ix ~iy d;
    Thermal.Adjoint.smoothed_peak ~sharpness:adj.Thermal.Adjoint.sharpness
      (Thermal.Mesh.solve (Thermal.Mesh.build cfg ~power:p))
  in
  let fd = (peak_with delta -. peak_with (-.delta)) /. (2.0 *. delta) in
  let sens = Geo.Grid.get adj.Thermal.Adjoint.sensitivity ~ix ~iy in
  let rel = Float.abs (fd -. sens) /. Float.abs fd in
  Alcotest.(check bool)
    (Printf.sprintf "full-system FD %.6g vs adjoint %.6g (rel %.3g)" fd sens
       rel)
    true (rel <= 1e-3)

let test_adjoint_smoothing_bounds () =
  let nx = 8 in
  let cfg =
    { Thermal.Mesh.default_config with Thermal.Mesh.nx = nx; ny = nx }
  in
  let power = lopsided_power ~nx ~ny:nx ~total:0.05 in
  let adj = Thermal.Adjoint.solve (Thermal.Mesh.build cfg ~power) in
  let gap =
    adj.Thermal.Adjoint.smoothed_peak_k -. adj.Thermal.Adjoint.peak_rise_k
  in
  Alcotest.(check bool) "smoothed peak upper-bounds the true peak" true
    (gap >= 0.0);
  let bound =
    log (float_of_int (nx * nx)) /. adj.Thermal.Adjoint.sharpness
  in
  Alcotest.(check bool)
    (Printf.sprintf "gap %.4g within ln(n)/beta = %.4g" gap bound)
    true (gap <= bound +. 1e-12);
  (* sensitivities are a chain of softmax weights through G^-1: all
     non-negative, and their total is the sum of the adjoint field over
     the power layer *)
  Geo.Grid.iteri adj.Thermal.Adjoint.sensitivity ~f:(fun ~ix ~iy v ->
      if v < 0.0 then
        Alcotest.failf "negative sensitivity %.3g at (%d,%d)" v ix iy)

let test_adjoint_validation () =
  let nx = 4 in
  let cfg =
    { Thermal.Mesh.default_config with Thermal.Mesh.nx = nx; ny = nx }
  in
  let power = uniform_power ~nx ~ny:nx ~total:0.01 in
  let problem = Thermal.Mesh.build cfg ~power in
  (match Thermal.Adjoint.solve ~sharpness:0.0 problem with
   | _ -> Alcotest.fail "zero sharpness accepted"
   | exception Invalid_argument _ -> ());
  let other =
    Thermal.Mesh.solve
      (Thermal.Mesh.build
         { cfg with Thermal.Mesh.nx = 8; ny = 8 }
         ~power:(uniform_power ~nx:8 ~ny:8 ~total:0.01))
  in
  match Thermal.Adjoint.solve ~forward:other problem with
  | _ -> Alcotest.fail "mismatched forward accepted"
  | exception Invalid_argument _ -> ()

let test_adjoint_fault_structured_error () =
  (* a clean forward passed in, the adjoint solve itself fault-armed:
     two stalls defeat the CG attempt and its cold retry, and the
     failure must surface as a structured error, not an exception or a
     silent NaN *)
  let nx = 8 in
  let cfg =
    { Thermal.Mesh.default_config with Thermal.Mesh.nx = nx; ny = nx }
  in
  let power = lopsided_power ~nx ~ny:nx ~total:0.05 in
  let problem = Thermal.Mesh.build cfg ~power in
  let fwd = Thermal.Mesh.solve problem in
  let r =
    Robust.Faults.with_fault ~times:2 Robust.Faults.Cg_stall (fun () ->
        Thermal.Adjoint.solve_result ~forward:fwd problem)
  in
  match r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fault-armed adjoint solve reported success"

(* The central difference of the smoothed peak along u = G^-1 e_tile (a
   unit source in tile (ix, iy)), by superposition:
   f(T0 + s u) - f(T0 - s u) is
   (1/beta) [log sum_j w_j e^(beta s u_j) - log sum_j w_j e^(-beta s u_j)]
   over the active layer, w being T0's softmax weights. Written through
   expm1 and log1p, the difference keeps its relative precision however
   hot T0 is, and a step with beta s max|u| = 1e-6 leaves a truncation
   error near 1e-13 of it. *)
let fd_sensitivity problem (adj : Thermal.Adjoint.t) ~ix ~iy =
  let cfg = Thermal.Mesh.config problem in
  let zp = cfg.Thermal.Mesh.stack.Thermal.Stack.power_layer in
  let nodes =
    Array.init (cfg.Thermal.Mesh.nx * cfg.Thermal.Mesh.ny) (fun i ->
        Thermal.Mesh.node_index cfg ~ix:(i mod cfg.Thermal.Mesh.nx)
          ~iy:(i / cfg.Thermal.Mesh.nx) ~iz:zp)
  in
  let e = Array.make (Array.length adj.Thermal.Adjoint.lambda) 0.0 in
  e.(Thermal.Mesh.node_index cfg ~ix ~iy ~iz:zp) <- 1.0;
  let u =
    (Thermal.Mesh.solve (Thermal.Mesh.with_rhs problem e)).Thermal.Mesh.temp
  in
  let t0 = adj.Thermal.Adjoint.forward.Thermal.Mesh.temp in
  let beta = adj.Thermal.Adjoint.sharpness in
  let max_over f = Array.fold_left (fun m j -> Float.max m (f j)) 0.0 nodes in
  let tmax = max_over (fun j -> t0.(j)) in
  let w = Array.map (fun j -> exp (beta *. (t0.(j) -. tmax))) nodes in
  let total = Array.fold_left ( +. ) 0.0 w in
  let s = 1e-6 /. (beta *. max_over (fun j -> Float.abs u.(j))) in
  let side sign =
    let acc = ref 0.0 in
    Array.iteri
      (fun k j ->
         acc := !acc +. (w.(k) /. total *. expm1 (sign *. beta *. s *. u.(j))))
      nodes;
    log1p !acc
  in
  (side 1.0 -. side (-1.0)) /. (2.0 *. beta *. s)

(* Random stacks and power maps, drawn as in [transient rises
   monotonically] (1-6 layers, 8x8 to 16x16, random sinks): the
   sensitivity at the argmax tile and at one random tile must match the
   central difference to 1e-6 of the map's peak — at the
   argmax tile that is its own relative error. A tile far from the hot
   spots can sit many orders below the peak, under what either field
   resolves (each is exact only to rounding of its largest entries). *)
let prop_adjoint_matches_fd =
  QCheck.Test.make ~name:"adjoint matches central differences on random stacks"
    ~count:30
    QCheck.(triple (int_range 8 16) (int_range 8 16) (int_range 0 100000))
    (fun (nx, ny, seed) ->
       let rng = Geo.Rng.create seed in
       let uniform lo hi = lo +. Geo.Rng.float rng (hi -. lo) in
       let log_uniform lo hi = exp (uniform (log lo) (log hi)) in
       let nz = 1 + Geo.Rng.int rng 6 in
       let layers =
         Array.init nz (fun i ->
             { Thermal.Stack.layer_name = Printf.sprintf "l%d" i;
               thickness_um = uniform 1.0 20.0;
               conductivity_w_mk = log_uniform 0.5 400.0 })
       in
       let h_top = log_uniform 1e2 1e6 in
       let h_bottom = if Geo.Rng.bool rng then 0.0 else log_uniform 1e2 1e6 in
       let stack =
         { Thermal.Stack.layers; power_layer = Geo.Rng.int rng nz;
           h_top_w_m2k = h_top; h_bottom_w_m2k = h_bottom }
       in
       let extent =
         Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:(uniform 50.0 400.0)
           ~h:(uniform 50.0 400.0)
       in
       let power = Geo.Grid.create ~nx ~ny ~extent in
       Geo.Grid.iteri power ~f:(fun ~ix ~iy _ ->
           Geo.Grid.set power ~ix ~iy (Geo.Rng.float rng 0.01));
       let problem =
         Thermal.Mesh.build { Thermal.Mesh.nx; ny; stack } ~power
       in
       let adj = Thermal.Adjoint.solve problem in
       let sens = adj.Thermal.Adjoint.sensitivity in
       let peak = Geo.Grid.max_value sens in
       let check (ix, iy) =
         let fd = fd_sensitivity problem adj ~ix ~iy in
         let got = Geo.Grid.get sens ~ix ~iy in
         if not (Float.abs (got -. fd) <= 1e-6 *. peak) then
           QCheck.Test.fail_reportf
             "nz=%d %dx%d: tile (%d,%d) adjoint %.12g K/W vs central \
              difference %.12g K/W (peak %.6g)"
             nz nx ny ix iy got fd peak
       in
       check (Geo.Grid.argmax sens);
       check (Geo.Rng.int rng nx, Geo.Rng.int rng ny);
       true)

(* --- spice export ------------------------------------------------------------ *)

(* Parse the emitted netlist back into a conductance matrix and verify it
   reproduces the original operator (a full round-trip of the export). *)
let test_spice_roundtrip () =
  let p = uniform_power ~nx:6 ~ny:6 ~total:0.01 in
  let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = 6; ny = 6 } in
  let problem = Thermal.Mesh.build cfg ~power:p in
  let m = Thermal.Mesh.stencil problem in
  let n = Thermal.Stencil.dim m in
  let s = Thermal.Spice.to_string problem in
  (* the netlist's conductances, summed into a dense matrix *)
  let a = Array.make (n * n) 0.0 in
  let add i j v = a.((i * n) + j) <- a.((i * n) + j) +. v in
  let n_current = ref 0 in
  let node_index name =
    (* "n123" -> 123 *)
    if String.length name < 2 || name.[0] <> 'n' then
      Alcotest.failf "bad node name %s" name;
    int_of_string (String.sub name 1 (String.length name - 1))
  in
  String.split_on_char '\n' s
  |> List.iter (fun lne ->
      if String.length lne > 0 then
        match lne.[0] with
        | 'R' ->
          (match String.split_on_char ' ' lne with
           | [ _; ni; "0"; r ] ->
             let i = node_index ni in
             add i i (1.0 /. float_of_string r)
           | [ _; ni; nj; r ] ->
             let i = node_index ni and j = node_index nj in
             let g = 1.0 /. float_of_string r in
             add i i g;
             add j j g;
             add i j (-.g);
             add j i (-.g)
           | _ -> Alcotest.failf "unparseable R line: %s" lne)
        | 'I' -> incr n_current
        | _ -> ());
  (* compare operators on a deterministic pseudo-random vector *)
  let x = Array.init n (fun i -> sin (float_of_int i)) in
  let y1 = Array.make n 0.0 in
  Thermal.Stencil.mul m x y1;
  let y2 =
    Array.init n (fun i ->
        let acc = ref 0.0 in
        for j = 0 to n - 1 do acc := !acc +. (a.((i * n) + j) *. x.(j)) done;
        !acc)
  in
  Array.iteri
    (fun i v ->
       if Float.abs (v -. y2.(i)) > 1e-9 *. (1.0 +. Float.abs v) then
         Alcotest.failf "operator mismatch at %d: %g vs %g" i v y2.(i))
    y1;
  (* one current source per powered node *)
  let powered =
    Array.fold_left (fun acc w -> if w <> 0.0 then acc + 1 else acc) 0
      (Thermal.Mesh.rhs problem)
  in
  Alcotest.(check int) "current sources" powered !n_current

let test_spice_counts () =
  let p = uniform_power ~nx:4 ~ny:4 ~total:0.01 in
  let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = 4; ny = 4 } in
  let problem = Thermal.Mesh.build cfg ~power:p in
  (* 4x4x9: x- and y-couplings in every layer, z-couplings per column *)
  let couplings = (2 * 3 * 4 * 9) + (4 * 4 * 8) in
  (* grounded resistors: top and bottom faces have boundary conductance *)
  let grounds = 2 * 4 * 4 in
  Alcotest.(check int) "resistor count"
    (couplings + grounds)
    (Thermal.Spice.count_resistors problem)

(* --- bit-identity pins ------------------------------------------------------ *)

(* MD5 of a float array printed exactly (%h), so any change to the
   operator's arithmetic — summation order included — shows. The digests
   were recorded from a CSR matrix assembled from triplets (see
   [triplet_assembly] below). *)
let digest_floats a =
  let b = Buffer.create (Array.length a * 24) in
  Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "%h;" v)) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let square n = { Thermal.Mesh.default_config with Thermal.Mesh.nx = n; ny = n }

(* The modal solve every flow takes, and the Jacobi-CG solve the solver
   faults reach, on one 40x40 problem. *)
let test_pin_solves_40 () =
  let power = lopsided_power ~nx:40 ~ny:40 ~total:0.2 in
  List.iter
    (fun (name, solve, digest) ->
       let p = Thermal.Mesh.build (square 40) ~power in
       Alcotest.(check string) name digest
         (digest_floats (solve p).Thermal.Mesh.temp))
    [ ("modal", Thermal.Mesh.solve, "af71ce1c519163c130b044f5c831b134");
      ("jacobi", jacobi_solution, "c243fb86f0309c5ebb5f521556348733") ]

(* The trajectory of modal backward-Euler steps ({!Thermal.Mesh.shifted}). *)
let test_pin_transient_16 () =
  let power = lopsided_power ~nx:16 ~ny:16 ~total:0.05 in
  let r =
    Thermal.Transient.step_response (square 16) ~power ~dt_s:2e-5 ~steps:20
      ()
  in
  Alcotest.(check string) "peak trajectory"
    "4677c4a589557fe0bc53419c0f5a8b2a"
    (digest_floats r.Thermal.Transient.peak_rise_k)

let test_pin_spice_10 () =
  let problem =
    Thermal.Mesh.build (square 10)
      ~power:(lopsided_power ~nx:10 ~ny:10 ~total:0.02)
  in
  Alcotest.(check string) "netlist" "068c61c512f9223254ea1b6736d2bc48"
    (Digest.to_hex (Digest.string (Thermal.Spice.to_string problem)))

(* --- metrics ---------------------------------------------------------------- *)

let test_metrics () =
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:4.0 ~h:4.0 in
  let g = Geo.Grid.create ~nx:2 ~ny:2 ~extent in
  Geo.Grid.set g ~ix:0 ~iy:0 1.0;
  Geo.Grid.set g ~ix:1 ~iy:0 3.0;
  Geo.Grid.set g ~ix:0 ~iy:1 2.0;
  Geo.Grid.set g ~ix:1 ~iy:1 6.0;
  let m = Thermal.Metrics.of_map g in
  check_float "peak" 6.0 m.Thermal.Metrics.peak_rise_k;
  check_float "mean" 3.0 m.Thermal.Metrics.mean_rise_k;
  check_float "min" 1.0 m.Thermal.Metrics.min_rise_k;
  check_float "gradient" 5.0 m.Thermal.Metrics.gradient_k;
  Alcotest.(check (pair int int)) "hottest" (1, 1)
    m.Thermal.Metrics.hottest_tile

let test_metrics_reduction () =
  let mk peak =
    { Thermal.Metrics.peak_rise_k = peak; mean_rise_k = peak /. 2.0;
      min_rise_k = 0.0; gradient_k = peak; hottest_tile = (0, 0) }
  in
  check_float "20% reduction" 20.0
    (Thermal.Metrics.reduction_pct ~before:(mk 10.0) ~after:(mk 8.0));
  check_float "gradient reduction" 50.0
    (Thermal.Metrics.gradient_reduction_pct ~before:(mk 10.0)
       ~after:(mk 5.0));
  check_float "degenerate base" 0.0
    (Thermal.Metrics.reduction_pct ~before:(mk 0.0) ~after:(mk 0.0))

(* --- property tests -------------------------------------------------------- *)

(* A random diagonally-dominant SPD stencil of 2 to 60 nodes: couplings
   of either sign, each diagonal entry its row's |off-diagonal| sum plus
   a margin. *)
let random_spd rng =
  let nx = 2 + Geo.Rng.int rng 4 and ny = 1 + Geo.Rng.int rng 3 in
  let nz = 1 + Geo.Rng.int rng 5 in
  let coupling () = Geo.Rng.float rng 2.0 -. 1.0 in
  let gx = Array.init nz (fun _ -> coupling ()) in
  let gy = Array.init nz (fun _ -> coupling ()) in
  let gz = Array.init (nz - 1) (fun _ -> coupling ()) in
  Thermal.Stencil.make ~nx ~ny ~gx ~gy ~gz ~diag:(fun ~xc ~yc ~iz ->
      let lateral g c =
        (if c land 1 <> 0 then Float.abs g else 0.0)
        +. if c land 2 <> 0 then Float.abs g else 0.0
      in
      lateral gx.(iz) xc +. lateral gy.(iz) yc
      +. (if iz > 0 then Float.abs gz.(iz - 1) else 0.0)
      +. (if iz < nz - 1 then Float.abs gz.(iz) else 0.0)
      +. 0.1 +. Geo.Rng.float rng 1.0)

let prop_cg_matches_cholesky =
  QCheck.Test.make ~name:"CG and Cholesky agree on random SPD systems"
    ~count:25 QCheck.(int_range 0 10000)
    (fun seed ->
       let rng = Geo.Rng.create seed in
       let m = random_spd rng in
       let n = Thermal.Stencil.dim m in
       let rhs = Array.init n (fun i -> Geo.Rng.float rng 2.0 -. 1.0 +. float_of_int (i mod 3)) in
       let cg = Thermal.Cg.solve m ~b:rhs ~tol:1e-12 () in
       let chol = dense_solve m rhs in
       cg.Thermal.Cg.converged
       && Array.for_all2
            (fun a b -> Float.abs (a -. b) < 1e-7 *. (1.0 +. Float.abs b))
            cg.Thermal.Cg.x chol)

(* The conductance matrix as a triplet assembler builds it: node by node
   (x fastest, then y, then z), each node emitting its east, north and
   upward couplings, then its bottom and top grounds, every term
   accumulated into a dense matrix in emission order. *)
let triplet_assembly (cfg : Thermal.Mesh.config) ~extent =
  let stack = cfg.Thermal.Mesh.stack in
  let layers = stack.Thermal.Stack.layers in
  let nx = cfg.Thermal.Mesh.nx and ny = cfg.Thermal.Mesh.ny in
  let nz = Array.length layers in
  let n = nx * ny * nz in
  let dx = Geo.Rect.width extent /. float_of_int nx *. 1.0e-6 in
  let dy = Geo.Rect.height extent /. float_of_int ny *. 1.0e-6 in
  let area = dx *. dy in
  let k iz = layers.(iz).Thermal.Stack.conductivity_w_mk in
  let dz iz = layers.(iz).Thermal.Stack.thickness_um *. 1.0e-6 in
  let r_half iz = dz iz /. 2.0 /. (k iz *. area) in
  let a = Array.make (n * n) 0.0 in
  let add i j v = a.((i * n) + j) <- a.((i * n) + j) +. v in
  let couple i j g = add i i g; add j j g; add i j (-.g); add j i (-.g) in
  let ground i g = if g > 0.0 then add i i g in
  for iz = 0 to nz - 1 do
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let i = (((iz * ny) + iy) * nx) + ix in
        if ix + 1 < nx then couple i (i + 1) (k iz *. (dy *. dz iz) /. dx);
        if iy + 1 < ny then couple i (i + nx) (k iz *. (dx *. dz iz) /. dy);
        if iz + 1 < nz then
          couple i (i + (nx * ny)) (1.0 /. (r_half iz +. r_half (iz + 1)));
        if iz = 0 then ground i (stack.Thermal.Stack.h_bottom_w_m2k *. area);
        if iz = nz - 1 then ground i (stack.Thermal.Stack.h_top_w_m2k *. area)
      done
    done
  done;
  (a, n)

(* Random stacks of 1-6 layers on 1-10 x 1-10 grids, each face ground on
   or off (at least one on): every stencil entry equals the triplet
   assembly's bit for bit, and [Stencil.mul] equals that matrix's
   product summed over each row's entries in column order from 0. *)
let prop_stencil_matches_triplets =
  QCheck.Test.make ~name:"stencil matches the triplet assembly bit for bit"
    ~count:200
    QCheck.(triple (int_range 1 10) (int_range 1 10) (int_range 0 100000))
    (fun (nx, ny, seed) ->
       let rng = Geo.Rng.create seed in
       let uniform lo hi = lo +. Geo.Rng.float rng (hi -. lo) in
       let nz = 1 + Geo.Rng.int rng 6 in
       let layers =
         Array.init nz (fun i ->
             { Thermal.Stack.layer_name = Printf.sprintf "l%d" i;
               thickness_um = uniform 1.0 20.0;
               conductivity_w_mk = exp (uniform (log 0.5) (log 400.0)) })
       in
       let maybe lo hi = if Geo.Rng.bool rng then 0.0 else uniform lo hi in
       let h_top_w_m2k = maybe 1e3 1e6 and h_bottom_w_m2k = maybe 1e2 1e5 in
       let h_top_w_m2k =
         if h_top_w_m2k = 0.0 && h_bottom_w_m2k = 0.0 then 5e5
         else h_top_w_m2k
       in
       let stack =
         { Thermal.Stack.layers; power_layer = Geo.Rng.int rng nz;
           h_top_w_m2k; h_bottom_w_m2k }
       in
       let extent =
         Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:(uniform 50.0 400.0)
           ~h:(uniform 50.0 400.0)
       in
       let cfg = { Thermal.Mesh.nx; ny; stack } in
       let m =
         Thermal.Mesh.stencil
           (Thermal.Mesh.build cfg ~power:(Geo.Grid.create ~nx ~ny ~extent))
       in
       let a, n = triplet_assembly cfg ~extent in
       let x = Array.init n (fun _ -> Geo.Rng.float rng 2.0 -. 1.0) in
       let y = Array.make n 0.0 in
       Thermal.Stencil.mul m x y;
       let diag = Thermal.Stencil.diagonal m in
       for i = 0 to n - 1 do
         let row = Array.sub a (i * n) n in
         Thermal.Stencil.iter_row m i ~f:(fun j v ->
             if Int64.bits_of_float v <> Int64.bits_of_float row.(j) then
               QCheck.Test.fail_reportf "entry (%d,%d): %h vs assembled %h" i
                 j v row.(j);
             row.(j) <- 0.0);
         if Array.exists (fun v -> v <> 0.0) row then
           QCheck.Test.fail_reportf "row %d: assembled entry missing" i;
         if diag.(i) <> a.((i * n) + i) then
           QCheck.Test.fail_reportf "diagonal %d: %h vs %h" i diag.(i)
             a.((i * n) + i);
         let acc = ref 0.0 in
         for j = 0 to n - 1 do
           let v = a.((i * n) + j) in
           if v <> 0.0 then acc := !acc +. (v *. x.(j))
         done;
         if Int64.bits_of_float !acc <> Int64.bits_of_float y.(i) then
           QCheck.Test.fail_reportf "mul row %d: %h vs assembled %h" i y.(i)
             !acc
       done;
       true)

let prop_mesh_superposition =
  QCheck.Test.make ~name:"thermal superposition (linearity in the source)"
    ~count:10
    QCheck.(pair (int_range 0 5) (int_range 0 5))
    (fun (ax, ay) ->
       let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:120.0 ~h:120.0 in
       let cfg = { Thermal.Mesh.default_config with Thermal.Mesh.nx = 6; ny = 6 } in
       let mk f =
         let g = Geo.Grid.create ~nx:6 ~ny:6 ~extent in
         f g;
         g
       in
       let p1 = mk (fun g -> Geo.Grid.set g ~ix:ax ~iy:ay 0.004) in
       let p2 = mk (fun g -> Geo.Grid.set g ~ix:(5 - ax) ~iy:(5 - ay) 0.006) in
       let p12 =
         mk (fun g ->
             Geo.Grid.set g ~ix:ax ~iy:ay 0.004;
             Geo.Grid.add g ~ix:(5 - ax) ~iy:(5 - ay) 0.006)
       in
       let solve p =
         (Thermal.Mesh.solve (Thermal.Mesh.build cfg ~power:p))
           .Thermal.Mesh.temp
       in
       let t1 = solve p1 and t2 = solve p2 and t12 = solve p12 in
       Array.for_all2
         (fun s t -> Float.abs (s -. t) < 1e-6 *. (1.0 +. Float.abs t))
         (Array.mapi (fun i v -> v +. t2.(i)) t1)
         t12)

(* --- robustness ----------------------------------------------------------------- *)

(* [[1, 3], [3, 1]] is symmetric with positive diagonal but indefinite:
   CG's very first curvature is pAp = -4. The guard must stop before the
   division and hand back a finite iterate. *)
let test_cg_breakdown_indefinite () =
  let m = chain ~d:1.0 ~g:(-3.0) 2 in
  let out = Thermal.Cg.solve m ~b:[| 1.0; -1.0 |] () in
  Alcotest.(check bool) "not converged" false out.Thermal.Cg.converged;
  (match out.Thermal.Cg.breakdown with
   | Some why ->
     Alcotest.(check bool) "curvature reason" true
       (String.length why > 0
        && String.sub why 0 12 = "non-positive")
   | None -> Alcotest.fail "breakdown not reported");
  Array.iter
    (fun v ->
       Alcotest.(check bool) "iterate stays finite" true (Float.is_finite v))
    out.Thermal.Cg.x

let test_cg_escalation_recovers () =
  let m = chain ~d:2.0 ~g:1.0 2 in
  (* one injected stall fails the first attempt only; the cold-Jacobi
     retry recovers *)
  let esc =
    Robust.Faults.with_fault Robust.Faults.Cg_stall (fun () ->
        Thermal.Cg.solve_escalating m ~b:[| 1.0; 0.0 |] ())
  in
  (match esc.Thermal.Cg.esc_status with
   | Thermal.Cg.Recovered -> ()
   | Thermal.Cg.Clean -> Alcotest.fail "stall not injected"
   | Thermal.Cg.Degraded -> Alcotest.fail "retry failed to recover");
  Alcotest.(check (list string)) "retry recorded" [ "restart" ]
    esc.Thermal.Cg.esc_rungs;
  Alcotest.(check bool) "recovered outcome converged" true
    esc.Thermal.Cg.esc_outcome.Thermal.Cg.converged;
  (* a clean solve reports an empty ladder *)
  let clean = Thermal.Cg.solve_escalating m ~b:[| 1.0; 0.0 |] () in
  (match clean.Thermal.Cg.esc_status with
   | Thermal.Cg.Clean -> ()
   | _ -> Alcotest.fail "clean solve escalated");
  Alcotest.(check (list string)) "no rungs" [] clean.Thermal.Cg.esc_rungs

(* --- convergence telemetry --------------------------------------------------- *)

(* 1-D chain Laplacian with a Dirichlet anchor: SPD, and at [n] in the
   hundreds the unpreconditioned-Jacobi solve needs well over
   [residual_log_capacity] iterations, exercising the stride-doubling
   downsample. *)
let chain_system n = (chain ~first:3.0 ~d:2.0 ~g:1.0 n, Array.make n 1.0)

let test_cg_history_ring () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Thermal.Cg.clear_histories ();
  Alcotest.(check int) "ring starts empty" 0
    (List.length (Thermal.Cg.recent_histories ()));
  let m, rhs = chain_system 16 in
  let out = Thermal.Cg.solve m ~b:rhs () in
  (match Thermal.Cg.recent_histories () with
   | [ h ] ->
     Alcotest.(check string) "label defaults to the preconditioner"
       "jacobi" h.Thermal.Cg.h_label;
     Alcotest.(check bool) "converged" true h.Thermal.Cg.h_converged;
     Alcotest.(check int) "iterations recorded"
       out.Thermal.Cg.iterations h.Thermal.Cg.h_iterations;
     let r = h.Thermal.Cg.h_residuals in
     Alcotest.(check bool) "residual trajectory present" true
       (Array.length r >= 2);
     Alcotest.(check bool) "trajectory ends far below its start" true
       (r.(Array.length r - 1) < r.(0) /. 1e6)
   | hs -> Alcotest.failf "expected 1 history, got %d" (List.length hs));
  (* residual metrics land in the registry *)
  (match Obs.Metrics.histogram "thermal.cg.residual.rate" with
   | Some h ->
     Alcotest.(check bool) "contraction rate in (0, 1)" true
       (h.Obs.Metrics.last > 0.0 && h.Obs.Metrics.last < 1.0)
   | None -> Alcotest.fail "thermal.cg.residual.rate not recorded");
  (match Obs.Metrics.histogram "thermal.cg.residual.final" with
   | Some _ -> ()
   | None -> Alcotest.fail "thermal.cg.residual.final not recorded");
  (* escalation rungs get their own labeled entries *)
  Thermal.Cg.clear_histories ();
  let esc =
    Robust.Faults.with_fault Robust.Faults.Cg_stall (fun () ->
        Thermal.Cg.solve_escalating m ~b:rhs ())
  in
  (match esc.Thermal.Cg.esc_status with
   | Thermal.Cg.Recovered -> ()
   | _ -> Alcotest.fail "stall not recovered");
  let labels =
    List.map (fun h -> h.Thermal.Cg.h_label) (Thermal.Cg.recent_histories ())
  in
  Alcotest.(check (list string)) "the retry is labelled"
    [ "jacobi"; "esc:restart" ] labels;
  (* the ring is bounded: overfill it and count *)
  Thermal.Cg.clear_histories ();
  let m16, rhs16 = chain_system 8 in
  for _ = 1 to Thermal.Cg.history_ring_capacity + 5 do
    ignore (Thermal.Cg.solve m16 ~b:rhs16 ())
  done;
  Alcotest.(check int) "ring bounded" Thermal.Cg.history_ring_capacity
    (List.length (Thermal.Cg.recent_histories ()));
  (* histories_json mirrors the ring *)
  match Thermal.Cg.histories_json () with
  | Obs.Json.List l ->
    Alcotest.(check int) "json entry per history"
      Thermal.Cg.history_ring_capacity (List.length l);
    (match l with
     | entry :: _ ->
       List.iter
         (fun k ->
            if Obs.Json.member k entry = None then
              Alcotest.failf "history json missing key %s" k)
         [ "label"; "iterations"; "converged"; "breakdown";
           "residual_stride"; "residuals" ]
     | [] -> ())
  | _ -> Alcotest.fail "histories_json is not a list"

let test_cg_residual_log_bounded () =
  Thermal.Cg.clear_histories ();
  let m, rhs = chain_system 600 in
  let out = Thermal.Cg.solve m ~b:rhs ~tol:1e-12 () in
  Alcotest.(check bool) "long solve actually exceeds the buffer" true
    (out.Thermal.Cg.iterations + 1 > Thermal.Cg.residual_log_capacity);
  match Thermal.Cg.recent_histories () with
  | [ h ] ->
    let len = Array.length h.Thermal.Cg.h_residuals in
    Alcotest.(check bool) "buffer bounded" true
      (len <= Thermal.Cg.residual_log_capacity);
    Alcotest.(check bool) "stride doubled" true
      (h.Thermal.Cg.h_stride > 1);
    (* the downsampled trajectory still covers the whole run *)
    Alcotest.(check bool) "coverage" true
      (len * h.Thermal.Cg.h_stride >= out.Thermal.Cg.iterations + 1);
    Alcotest.(check bool) "still a contraction" true
      (h.Thermal.Cg.h_residuals.(len - 1) < h.Thermal.Cg.h_residuals.(0))
  | hs -> Alcotest.failf "expected 1 history, got %d" (List.length hs)

(* The small test set, prepared on a 12x12 mesh, for the check_design
   half of the fault contract below. *)
let small_flow =
  lazy
    (Parallel.Pool.set_jobs 1;
     Postplace.Flow.prepare ~seed:7 ~utilization:0.7 ~sim_cycles:60
       ~mesh_config:small_cfg (Netgen.Benchmark.small ())
       (Logicsim.Workload.make ~default:0.05 ~hot:[ (0, 0.5) ]))

(* A Perturb_matrix fault poisons exactly the next mesh build: the solve
   leaves the modal engine for CG and fails loudly, its first attempt and
   then its cold retry, the structure check names it, and the next
   healthy build solves. *)
let test_mesh_perturbed_matrix_fails () =
  let p = uniform_power ~nx:10 ~ny:10 ~total:0.02 in
  (match
     Robust.Faults.with_fault Robust.Faults.Perturb_matrix (fun () ->
         Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:p))
   with
   | _ -> Alcotest.fail "perturbed matrix solved silently"
   | exception
       Robust.Error.Error (Robust.Error.Solver_diverged { rungs; _ }) ->
     Alcotest.(check (list string)) "attempt and retry"
       [ "requested"; "restart" ] rungs);
  let flow = Lazy.force small_flow in
  let outcomes =
    Robust.Faults.with_fault Robust.Faults.Perturb_matrix (fun () ->
        Postplace.Flow.check_design flow flow.Postplace.Flow.base_placement)
  in
  let failed name =
    List.exists
      (fun o ->
         o.Robust.Validate.check_name = name
         && Option.is_some o.Robust.Validate.failure)
      outcomes
  in
  Alcotest.(check bool) "mesh.spd_structure fails" true
    (failed "mesh.spd_structure");
  (* the fault is spent: a healthy build solves *)
  let s = Thermal.Mesh.solve (Thermal.Mesh.build small_cfg ~power:p) in
  Alcotest.(check bool) "healthy build after fault" true
    (Array.for_all Float.is_finite s.Thermal.Mesh.temp)

(* --- fft / blur -------------------------------------------------------------------- *)

(* Reference O(n^2) DFT for parity checks; the angle's k t is reduced
   mod n so the reference itself stays accurate at large lengths. *)
let naive_dft re im =
  let n = Array.length re in
  let outr = Array.make n 0.0 and outi = Array.make n 0.0 in
  for k = 0 to n - 1 do
    let sr = ref 0.0 and si = ref 0.0 in
    for t = 0 to n - 1 do
      let ang =
        -2.0 *. Float.pi *. float_of_int (k * t mod n) /. float_of_int n
      in
      sr := !sr +. (re.(t) *. cos ang) -. (im.(t) *. sin ang);
      si := !si +. (re.(t) *. sin ang) +. (im.(t) *. cos ang)
    done;
    outr.(k) <- !sr;
    outi.(k) <- !si
  done;
  (outr, outi)

let random_signal ~seed n =
  let st = Random.State.make [| seed; n |] in
  ( Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0),
    Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) )

(* max_k |fft - dft| / max_k |dft| *)
let fft_rel_err re im =
  let dr, di = naive_dft re im in
  let fr = Array.copy re and fi = Array.copy im in
  Thermal.Fft.fft ~re:fr ~im:fi;
  let scale = ref 0.0 and err = ref 0.0 in
  Array.iteri
    (fun k r ->
       scale := Float.max !scale (Float.hypot r di.(k));
       err := Float.max !err (Float.hypot (fr.(k) -. r) (fi.(k) -. di.(k))))
    dr;
  !err /. !scale

let test_fft_parity_vs_dft () =
  Obs.Metrics.set_enabled true;
  let count name =
    Option.value ~default:0 (Obs.Metrics.counter_value name)
  in
  (* 8/128 take the power-of-two path, 40 the mixed-radix one and 60/127
     Bluestein; each transform bumps its length class's counter once *)
  List.iter
    (fun (n, counter) ->
       let re, im = random_signal ~seed:7 n in
       let before = count counter in
       let e = fft_rel_err re im in
       if e > 1e-9 then
         Alcotest.failf "n=%d: fft deviates from dft by %.2e rel" n e;
       Alcotest.(check int) (Printf.sprintf "n=%d counts %s" n counter)
         (before + 1) (count counter))
    [ (8, "thermal.fft.radix2"); (40, "thermal.fft.mixed_radix");
      (60, "thermal.fft.bluestein"); (127, "thermal.fft.bluestein");
      (128, "thermal.fft.radix2") ]

let test_fft_roundtrip () =
  List.iter
    (fun n ->
       let re, im = random_signal ~seed:11 n in
       let fr = Array.copy re and fi = Array.copy im in
       Thermal.Fft.fft ~re:fr ~im:fi;
       Thermal.Fft.ifft ~re:fr ~im:fi;
       Array.iteri
         (fun k v -> check_float "re roundtrip" v fr.(k)) re;
       Array.iteri
         (fun k v -> check_float "im roundtrip" v fi.(k)) im)
    [ 1; 2; 96; 100 ]

let test_fft_linearity () =
  let n = 60 in
  let xr, xi = random_signal ~seed:17 n in
  let yr, yi = random_signal ~seed:19 n in
  let a = 1.75 and b = -0.4 in
  let zr = Array.init n (fun k -> (a *. xr.(k)) +. (b *. yr.(k))) in
  let zi = Array.init n (fun k -> (a *. xi.(k)) +. (b *. yi.(k))) in
  Thermal.Fft.fft ~re:xr ~im:xi;
  Thermal.Fft.fft ~re:yr ~im:yi;
  Thermal.Fft.fft ~re:zr ~im:zi;
  for k = 0 to n - 1 do
    check_float ~eps:1e-10 "linear re"
      ((a *. xr.(k)) +. (b *. yr.(k))) zr.(k);
    check_float ~eps:1e-10 "linear im"
      ((a *. xi.(k)) +. (b *. yi.(k))) zi.(k)
  done

(* Every length 1-200 against the naive DFT: the radix 2/5 mixes of the
   smooth lengths and Bluestein on every other one. *)
let prop_fft_matches_dft =
  QCheck.Test.make ~name:"fft matches the naive DFT at every length 1-200"
    ~count:3 QCheck.(int_range 0 100000)
    (fun seed ->
       for n = 1 to 200 do
         let re, im = random_signal ~seed n in
         let e = fft_rel_err re im in
         if e > 1e-12 then
           QCheck.Test.fail_reportf "n=%d: %.2e relative to the DFT" n e
       done;
       true)

let prop_fft_roundtrip =
  QCheck.Test.make ~name:"ifft (fft x) = x" ~count:200
    QCheck.(pair (int_range 1 200) (int_range 0 100000))
    (fun (n, seed) ->
       let re, im = random_signal ~seed n in
       let fr = Array.copy re and fi = Array.copy im in
       Thermal.Fft.fft ~re:fr ~im:fi;
       Thermal.Fft.ifft ~re:fr ~im:fi;
       let err = ref 0.0 in
       Array.iteri
         (fun k v ->
            err :=
              Float.max !err (Float.hypot (fr.(k) -. v) (fi.(k) -. im.(k))))
         re;
       if !err > 1e-12 then
         QCheck.Test.fail_reportf "n=%d: round trip off by %.2e" n !err;
       true)

(* The DCT-II of [rows] rows of length [n], by its defining sum. *)
let naive_dct2 ~n ~rows a =
  Array.init (n * rows) (fun i ->
      let r = i / n and k = i mod n in
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        let phase = k * ((2 * j) + 1) mod (4 * n) in
        acc :=
          !acc
          +. (a.((r * n) + j)
              *. cos (Float.pi *. float_of_int phase /. float_of_int (2 * n)))
      done;
      !acc)

(* n 1-64, smooth and Bluestein lengths, with odd row counts (1-7). *)
let prop_dct2_matches_sum =
  QCheck.Test.make ~name:"dct2_rows matches its sum; idct2_rows inverts it"
    ~count:300
    QCheck.(triple (int_range 1 64) (int_range 0 3) (int_range 0 100000))
    (fun (n, half_rows, seed) ->
       let rows = (2 * half_rows) + 1 in
       let x, _ = random_signal ~seed (n * rows) in
       let expect = naive_dct2 ~n ~rows x in
       let got = Array.copy x in
       Thermal.Fft.dct2_rows ~n ~rows got;
       let linf v =
         Array.fold_left (fun m e -> Float.max m (Float.abs e)) 0.0 v
       in
       let scale = linf expect in
       let err = linf (Array.map2 ( -. ) got expect) in
       if err > 1e-12 *. scale then
         QCheck.Test.fail_reportf "n=%d rows=%d: dct %.2e vs scale %.2e" n
           rows err scale;
       Thermal.Fft.idct2_rows ~n ~rows got;
       let back = linf (Array.map2 ( -. ) got x) in
       if back > 1e-12 *. linf x then
         QCheck.Test.fail_reportf "n=%d rows=%d: round trip off by %.2e" n
           rows back;
       true)

let test_fft_validation () =
  (match Thermal.Fft.fft ~re:[||] ~im:[||] with
   | _ -> Alcotest.fail "empty input accepted"
   | exception Invalid_argument _ -> ());
  (match Thermal.Fft.fft ~re:(Array.make 4 0.0) ~im:(Array.make 3 0.0) with
   | _ -> Alcotest.fail "mismatched lengths accepted"
   | exception Invalid_argument _ -> ());
  (match Thermal.Fft.dct2_rows ~n:4 ~rows:3 (Array.make 10 0.0) with
   | _ -> Alcotest.fail "dct row layout mismatch accepted"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "next_pow2" 64 (Thermal.Fft.next_pow2 33);
  Alcotest.(check bool) "is_pow2" true (Thermal.Fft.is_pow2 64);
  Alcotest.(check bool) "not pow2" false (Thermal.Fft.is_pow2 48)

(* a 24x24 mesh: even, non-power-of-two, big enough for a localized
   kernel *)
let blur_cfg =
  { Thermal.Mesh.default_config with Thermal.Mesh.nx = 24; ny = 24 }

let point_power sources =
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:200.0 ~h:200.0 in
  let g = Geo.Grid.create ~nx:24 ~ny:24 ~extent in
  List.iter (fun (ix, iy, w) -> Geo.Grid.set g ~ix ~iy w) sources;
  g

(* The blur kernel of [cfg] on [power]'s die. *)
let blur_of cfg power = Thermal.Mesh.blur cfg ~extent:(Geo.Grid.extent power)

let test_blur_reproduces_impulse_response () =
  (* a 1 W delta in the middle of the die: the modal transfer is exact
     for the discrete operator, so the blurred field must match a full
     solve to solver tolerance. The reference is Jacobi-CG on the
     stencil, which shares no transform with the blur *)
  let power = point_power [ (12, 12, 1.0) ] in
  let kernel = blur_of blur_cfg power in
  let exact = jacobi_solution (Thermal.Mesh.build blur_cfg ~power) in
  let g = Thermal.Mesh.active_layer_grid exact in
  let peak = Geo.Grid.max_value g in
  let field = Thermal.Blur.field kernel ~power in
  let max_rel = ref 0.0 in
  Geo.Grid.iteri g ~f:(fun ~ix ~iy v ->
      let d = Float.abs (Geo.Grid.get field ~ix ~iy -. v) /. peak in
      if d > !max_rel then max_rel := d);
  Alcotest.(check bool)
    (Printf.sprintf "centred delta matches exact solve (got %.2e)" !max_rel)
    true (!max_rel <= 1e-9)

let test_blur_screens_composed_sources () =
  (* off-center sources, including one near a wall: boundary placement
     is the regime where naive shift-invariant blurring breaks down; the
     exact transfer must not care. The reference is Jacobi-CG, as
     above *)
  let power = point_power [ (8, 14, 0.5); (16, 10, 0.3); (2, 4, 0.4) ] in
  let kernel = blur_of blur_cfg power in
  let exact = jacobi_solution (Thermal.Mesh.build blur_cfg ~power) in
  let g = Thermal.Mesh.active_layer_grid exact in
  let peak = Geo.Grid.max_value g in
  let field = Thermal.Blur.field kernel ~power in
  let max_rel = ref 0.0 in
  Geo.Grid.iteri g ~f:(fun ~ix ~iy v ->
      let d = Float.abs (Geo.Grid.get field ~ix ~iy -. v) /. peak in
      if d > !max_rel then max_rel := d);
  Alcotest.(check bool)
    (Printf.sprintf "composed near-wall sources match exact (got %.2e)"
       !max_rel)
    true (!max_rel <= 1e-9)

let test_blur_linearity () =
  let p1 = point_power [ (6, 6, 0.4) ] in
  let p2 = point_power [ (18, 15, 0.7) ] in
  let sum = Geo.Grid.map2 p1 p2 ~f:( +. ) in
  let kernel = blur_of blur_cfg sum in
  let f1 = Thermal.Blur.field kernel ~power:p1 in
  let f2 = Thermal.Blur.field kernel ~power:p2 in
  let fs = Thermal.Blur.field kernel ~power:sum in
  let peak = Geo.Grid.max_value fs in
  Geo.Grid.iteri fs ~f:(fun ~ix ~iy v ->
      let s = Geo.Grid.get f1 ~ix ~iy +. Geo.Grid.get f2 ~ix ~iy in
      if Float.abs (v -. s) /. peak > 1e-12 then
        Alcotest.failf "convolution not linear at (%d,%d)" ix iy);
  (* peak agrees with field's max *)
  check_float ~eps:1e-12 "peak = max of field" peak
    (Thermal.Blur.peak kernel ~power:sum)

let test_blur_validation () =
  let power = point_power [ (12, 12, 1.0) ] in
  let kernel = blur_of blur_cfg power in
  let extent = Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:200.0 ~h:200.0 in
  let wrong = Geo.Grid.create ~nx:10 ~ny:10 ~extent in
  (match Thermal.Blur.field kernel ~power:wrong with
   | _ -> Alcotest.fail "dimension mismatch accepted"
   | exception Invalid_argument _ -> ());
  (* with neither face grounded the uniform mode has no heat path: the
     stack fails validation, and the blur refuses it as the build does *)
  let stack =
    { Thermal.Stack.default_9layer with
      Thermal.Stack.h_top_w_m2k = 0.0; h_bottom_w_m2k = 0.0 }
  in
  match blur_of { blur_cfg with Thermal.Mesh.stack } power with
  | _ -> Alcotest.fail "ungrounded stack accepted"
  | exception Invalid_argument _ -> ()

(* The transfer is closed-form: characterizing it runs no solve, and
   builds no problem, so an armed fault stays armed for the solve path
   it targets. *)
let test_blur_runs_no_solve () =
  Obs.Metrics.set_enabled true;
  let solves () =
    Option.value ~default:0 (Obs.Metrics.counter_value "thermal.cg.solves")
  in
  let before = solves () in
  Robust.Faults.with_fault Robust.Faults.Perturb_matrix (fun () ->
      ignore (blur_of blur_cfg (point_power [ (12, 12, 1.0) ]) : Thermal.Blur.t);
      Alcotest.(check bool) "perturb_matrix left for the next build" true
        (Robust.Faults.consume Robust.Faults.Perturb_matrix));
  Alcotest.(check int) "no CG solve" before (solves ())

(* After warm-up (plans memoized), one screening evaluation allocates
   little beyond its two nx * ny work arrays. *)
let test_blur_peak_allocation () =
  List.iter
    (fun n ->
       let cfg =
         { Thermal.Mesh.default_config with Thermal.Mesh.nx = n; ny = n }
       in
       let power = uniform_power ~nx:n ~ny:n ~total:0.02 in
       let kernel = blur_of cfg power in
       ignore (Thermal.Blur.peak kernel ~power : float);
       let words () =
         let minor, promoted, major = Gc.counters () in
         minor +. major -. promoted
       in
       (* the median of five consecutive calls: a call that a minor or
          major collection lands inside can read many times its own
          allocation *)
       let call () =
         let w0 = words () in
         ignore (Thermal.Blur.peak kernel ~power : float);
         words () -. w0
       in
       let w = List.nth (List.sort compare (List.init 5 (fun _ -> call ()))) 2 in
       let budget = float_of_int (4 * n * n) in
       if w > budget then
         Alcotest.failf "%dx%d: Blur.peak allocates %.0f words (> %.0f)" n n w
           budget)
    [ 20; 160 ]

(* The dense Cholesky solve, refined twice against the conductance form
   of the operator, ground_i x_i + sum_j g_ij (x_i - x_j), which never
   forms the assembled diagonal. On a weakly grounded stack (diagonal up
   to ~1e7 times the ground) the diagonal's own rounding moves the plain
   solve by up to ~1e-9 of its peak; the refined solve is exact to
   rounding. *)
let dense_solve_refined m b ~ground =
  let chol = Thermal.Dense.of_stencil m in
  let n = Array.length b in
  let x = Array.make n 0.0 and r = Array.make n 0.0 and d = Array.make n 0.0 in
  Thermal.Dense.solve_into chol b x;
  for _ = 1 to 2 do
    for i = 0 to n - 1 do
      let acc = ref (b.(i) -. (ground i *. x.(i))) in
      Thermal.Stencil.iter_row m i ~f:(fun j a ->
          if j <> i then acc := !acc +. (a *. (x.(i) -. x.(j))));
      r.(i) <- !acc
    done;
    Thermal.Dense.solve_into chol r d;
    Array.iteri (fun i v -> x.(i) <- x.(i) +. v) d
  done;
  x

(* Random adiabatic stacks against the dense oracle: 1-6 layers of
   1-20 um at 0.5-400 W/(m K), each face sink off or 1e2-1e6 (at least
   one on), odd and prime grid sizes, random extent and power. The modal
   transfer and the modal solve are exact for the discrete operator, so
   the blurred active layer and the default solve's field on every layer
   must match the direct solve to rounding. *)
let prop_blur_matches_dense =
  QCheck.Test.make ~name:"Blur.field matches dense Cholesky on random stacks"
    ~count:150
    QCheck.(triple (int_range 2 10) (int_range 2 10) (int_range 0 100000))
    (fun (nx, ny, seed) ->
       let rng = Geo.Rng.create seed in
       let uniform lo hi = lo +. Geo.Rng.float rng (hi -. lo) in
       let log_uniform lo hi = exp (uniform (log lo) (log hi)) in
       let nz = 1 + Geo.Rng.int rng 6 in
       let layers =
         Array.init nz (fun i ->
             { Thermal.Stack.layer_name = Printf.sprintf "l%d" i;
               thickness_um = uniform 1.0 20.0;
               conductivity_w_mk = log_uniform 0.5 400.0 })
       in
       let sink () =
         if Geo.Rng.bool rng then 0.0 else log_uniform 1e2 1e6
       in
       let h_top, h_bottom =
         match sink (), sink () with
         | 0.0, 0.0 -> if Geo.Rng.bool rng then (log_uniform 1e2 1e6, 0.0)
           else (0.0, log_uniform 1e2 1e6)
         | t, b -> (t, b)
       in
       let stack =
         { Thermal.Stack.layers;
           power_layer = Geo.Rng.int rng nz;
           h_top_w_m2k = h_top;
           h_bottom_w_m2k = h_bottom }
       in
       let extent =
         Geo.Rect.of_corner ~x:0.0 ~y:0.0 ~w:(uniform 20.0 400.0)
           ~h:(uniform 20.0 400.0)
       in
       let power = Geo.Grid.create ~nx ~ny ~extent in
       Geo.Grid.iteri power ~f:(fun ~ix ~iy _ ->
           Geo.Grid.set power ~ix ~iy (Geo.Rng.float rng 0.01));
       let cfg = { Thermal.Mesh.nx; ny; stack } in
       let problem = Thermal.Mesh.build cfg ~power in
       let tile_m2 =
         (Geo.Grid.tile_width power *. 1e-6)
         *. (Geo.Grid.tile_height power *. 1e-6)
       in
       let ground i =
         let iz = i / (nx * ny) in
         (if iz = 0 then h_bottom *. tile_m2 else 0.0)
         +. if iz = nz - 1 then h_top *. tile_m2 else 0.0
       in
       let direct =
         dense_solve_refined (Thermal.Mesh.stencil problem)
           (Thermal.Mesh.rhs problem) ~ground
       in
       let field = Thermal.Blur.field (blur_of cfg power) ~power in
       let peak = ref 0.0 and err = ref 0.0 in
       Geo.Grid.iteri field ~f:(fun ~ix ~iy v ->
           let d =
             direct.(Thermal.Mesh.node_index cfg ~ix ~iy
                       ~iz:stack.Thermal.Stack.power_layer)
           in
           peak := Float.max !peak (Float.abs d);
           err := Float.max !err (Float.abs (v -. d)));
       if !err > 1e-12 *. !peak then
         QCheck.Test.fail_reportf "nz=%d %dx%d: |blur - dense| = %.2e vs %.2e"
           nz nx ny !err !peak;
       let solved = Thermal.Mesh.solve problem in
       if solved.Thermal.Mesh.cg_iterations <> 0 then
         QCheck.Test.fail_reportf "nz=%d %dx%d: the default solve ran CG"
           nz nx ny;
       let peak = Array.fold_left (fun m d -> Float.max m (Float.abs d)) 0.0
           direct in
       let err = ref 0.0 in
       Array.iteri
         (fun i d ->
            err :=
              Float.max !err (Float.abs (solved.Thermal.Mesh.temp.(i) -. d)))
         direct;
       if !err > 1e-12 *. peak then
         QCheck.Test.fail_reportf
           "nz=%d %dx%d: |Mesh.solve - dense| = %.2e vs %.2e" nz nx ny !err
           peak;
       true)

let () =
  Alcotest.run "thermal"
    [ ("sparse",
       [ Alcotest.test_case "mul matches dense" `Quick
           test_sparse_mul_matches_dense;
         Alcotest.test_case "duplicates summed" `Quick
           test_sparse_duplicates_summed;
         Alcotest.test_case "diagonal and get" `Quick
           test_sparse_diagonal_and_get;
         Alcotest.test_case "bounds" `Quick test_sparse_bounds ]);
      ("cg",
       [ Alcotest.test_case "small exact" `Quick test_cg_small_exact;
         Alcotest.test_case "poisson residual" `Quick
           test_cg_poisson_residual;
         Alcotest.test_case "zero rhs" `Quick test_cg_zero_rhs;
         Alcotest.test_case "bad diagonal rejected" `Quick
           test_cg_rejects_bad_diagonal;
         Alcotest.test_case "telemetry" `Quick test_cg_telemetry ]);
      ("stack",
       [ Alcotest.test_case "default valid" `Quick test_stack_default_valid;
         Alcotest.test_case "validation errors" `Quick
           test_stack_validation_errors;
         Alcotest.test_case "with_sink" `Quick test_stack_with_sink ]);
      ("mesh",
       [ Alcotest.test_case "grid mismatch" `Quick
           test_mesh_requires_matching_grid;
         Alcotest.test_case "linearity" `Quick test_mesh_linearity;
         Alcotest.test_case "energy balance" `Quick test_mesh_energy_balance;
         Alcotest.test_case "x symmetry" `Quick test_mesh_symmetry;
         Alcotest.test_case "hotspot local" `Quick test_mesh_hotspot_is_local;
         Alcotest.test_case "stronger sink cools" `Quick
           test_mesh_stronger_sink_cools;
         Alcotest.test_case "vertical profile" `Quick
           test_mesh_vertical_profile;
         Alcotest.test_case "1-D analytic" `Quick test_mesh_1d_analytic;
         Alcotest.test_case "solver options threaded" `Quick
           test_mesh_solve_options_threaded;
         Alcotest.test_case "default solve is modal" `Quick
           test_mesh_default_is_modal ]);
      ("dense",
       [ Alcotest.test_case "matches cg" `Quick test_dense_matches_cg;
         Alcotest.test_case "cross-checks mesh" `Quick
           test_dense_cross_checks_mesh;
         Alcotest.test_case "rejects indefinite" `Quick
           test_dense_rejects_indefinite ]);
      ("transient",
       [ Alcotest.test_case "approaches steady state" `Quick
           test_transient_approaches_steady_state;
         Alcotest.test_case "time constant >> clock (paper SII)" `Quick
           test_transient_time_constant_validates_paper;
         Alcotest.test_case "validation" `Quick test_transient_validation;
         Alcotest.test_case "flat tau stays finite" `Quick
           test_transient_flat_tau_is_finite;
         Alcotest.test_case "matches backward Euler" `Quick
           test_transient_matches_backward_euler;
         QCheck_alcotest.to_alcotest prop_transient_reaches_steady ]);
      ("adjoint",
       [ Alcotest.test_case "FD validation mg 8x8" `Quick
           test_adjoint_fd_mg_8;
         Alcotest.test_case "FD validation mg 16x16" `Quick
           test_adjoint_fd_mg_16;
         Alcotest.test_case "FD full-system sanity" `Quick
           test_adjoint_fd_full_system;
         Alcotest.test_case "smoothing bounds" `Quick
           test_adjoint_smoothing_bounds;
         Alcotest.test_case "validation" `Quick test_adjoint_validation;
         Alcotest.test_case "fault -> structured error" `Quick
           test_adjoint_fault_structured_error;
         QCheck_alcotest.to_alcotest prop_adjoint_matches_fd ]);
      ("fft",
       [ Alcotest.test_case "parity vs naive dft" `Quick
           test_fft_parity_vs_dft;
         Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
         Alcotest.test_case "linearity" `Quick test_fft_linearity;
         Alcotest.test_case "validation" `Quick test_fft_validation;
         QCheck_alcotest.to_alcotest prop_fft_matches_dft;
         QCheck_alcotest.to_alcotest prop_fft_roundtrip;
         QCheck_alcotest.to_alcotest prop_dct2_matches_sum ]);
      ("blur",
       [ Alcotest.test_case "impulse reproduces response" `Quick
           test_blur_reproduces_impulse_response;
         Alcotest.test_case "composed sources within tolerance" `Quick
           test_blur_screens_composed_sources;
         Alcotest.test_case "linearity" `Quick test_blur_linearity;
         Alcotest.test_case "validation" `Quick test_blur_validation;
         Alcotest.test_case "characterization runs no solve" `Quick
           test_blur_runs_no_solve;
         Alcotest.test_case "peak allocation bounded" `Quick
           test_blur_peak_allocation;
         QCheck_alcotest.to_alcotest prop_blur_matches_dense ]);
      ("spice",
       [ Alcotest.test_case "round trip" `Quick test_spice_roundtrip;
         Alcotest.test_case "element counts" `Quick test_spice_counts ]);
      ("pins",
       [ Alcotest.test_case "40x40 solve digests" `Quick test_pin_solves_40;
         Alcotest.test_case "16x16 transient digest" `Quick
           test_pin_transient_16;
         Alcotest.test_case "10x10 netlist digest" `Quick
           test_pin_spice_10 ]);
      ("metrics",
       [ Alcotest.test_case "of_map" `Quick test_metrics;
         Alcotest.test_case "reductions" `Quick test_metrics_reduction ]);
      ("robustness",
       [ Alcotest.test_case "cg breakdown on indefinite" `Quick
           test_cg_breakdown_indefinite;
         Alcotest.test_case "escalation recovers from stall" `Quick
           test_cg_escalation_recovers;
         Alcotest.test_case "history ring telemetry" `Quick
           test_cg_history_ring;
         Alcotest.test_case "residual log bounded on long solves" `Quick
           test_cg_residual_log_bounded;
         Alcotest.test_case "perturbed matrix fails loudly" `Quick
           test_mesh_perturbed_matrix_fails ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_cg_matches_cholesky; prop_mesh_superposition;
           prop_stencil_matches_triplets ]) ]
