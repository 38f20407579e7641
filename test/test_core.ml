(* Tests for the OPM solver core: descriptors, the column-by-column
   engine, the high-level simulate functions and the adaptive driver. *)

open Opm_numkit
open Opm_sparse
open Opm_basis
open Opm_signal
open Opm_core

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let step = Source.Step { amplitude = 1.0; delay = 0.0 }

let max_err_against f result =
  let y = Sim_result.output result 0 in
  let mids = Grid.midpoints result.Sim_result.grid in
  let err = ref 0.0 in
  Array.iteri (fun i t -> err := Float.max !err (Float.abs (y.(i) -. f t))) mids;
  !err

(* ---------- Descriptor ---------- *)

let test_descriptor_dims () =
  let sys = Descriptor.random_stable ~n:7 ~p:2 ~q:3 () in
  check_int "order" 7 (Descriptor.order sys);
  check_int "inputs" 2 (Descriptor.input_count sys);
  check_int "outputs" 3 (Descriptor.output_count sys)

let test_descriptor_validation () =
  check_bool "B row mismatch rejected" true
    (try
       ignore
         (Descriptor.of_dense ~e:(Mat.eye 2) ~a:(Mat.eye 2) ~b:(Mat.zeros 3 1)
            ~c:(Mat.eye 2) ());
       false
     with Invalid_argument _ -> true);
  check_bool "bad state name count rejected" true
    (try
       ignore
         (Descriptor.of_dense ~state_names:[| "only-one" |] ~e:(Mat.eye 2)
            ~a:(Mat.eye 2) ~b:(Mat.zeros 2 1) ~c:(Mat.eye 2) ());
       false
     with Invalid_argument _ -> true)

let test_descriptor_random_stable_is_stable () =
  (* diagonally dominant negative: simulate and check decay *)
  let sys = Descriptor.random_stable ~seed:7 ~n:8 ~p:1 ~q:1 () in
  let grid = Grid.uniform ~t_end:20.0 ~m:400 in
  let r = Opm.simulate_linear ~grid sys [| Source.Dc 0.0 |] in
  (* zero input from zero state stays zero; drive with a pulse instead *)
  ignore r;
  let r =
    Opm.simulate_linear ~grid sys
      [|
        Source.Pulse
          { low = 0.0; high = 1.0; delay = 0.0; width = 0.5; period = Float.infinity };
      |]
  in
  let y = Sim_result.output r 0 in
  check_bool "decays after the pulse" true
    (Float.abs y.(399) < 1e-6 *. Float.max 1.0 (Vec.norm_inf y))

(* ---------- Multi_term ---------- *)

let test_multi_term_validation () =
  check_bool "empty terms rejected" true
    (try
       ignore (Multi_term.make ~terms:[] ~a:(Csr.eye 2) ~b:(Mat.zeros 2 1) ~c:(Mat.eye 2) ());
       false
     with Invalid_argument _ -> true);
  check_bool "alpha <= 0 rejected" true
    (try
       ignore
         (Multi_term.make ~terms:[ (Csr.eye 2, -0.5) ] ~a:(Csr.eye 2)
            ~b:(Mat.zeros 2 1) ~c:(Mat.eye 2) ());
       false
     with Invalid_argument _ -> true)

let test_multi_term_of_linear () =
  let sys = Descriptor.scalar ~e:2.0 ~a:(-1.0) ~b:1.0 in
  let mt = Multi_term.of_linear sys in
  check_int "one term" 1 (List.length mt.Multi_term.terms);
  close "alpha" 1.0 (List.hd mt.Multi_term.terms).Multi_term.alpha;
  check_int "input order" 0 mt.Multi_term.input_order

let test_multi_term_second_order () =
  let mt =
    Multi_term.second_order ~m2:(Csr.eye 3) ~m1:(Csr.scale 2.0 (Csr.eye 3))
      ~m0:(Csr.scale 5.0 (Csr.eye 3))
      ~b:(Mat.zeros 3 1) ~c:(Mat.eye 3) ()
  in
  close "max alpha" 2.0
    (List.fold_left (fun acc t -> Float.max acc t.Multi_term.alpha) 0.0 mt.Multi_term.terms);
  (* A = −M₀ *)
  close "a sign" (-5.0) (Csr.get mt.Multi_term.a 1 1)

(* ---------- Engine ---------- *)

let random_system seed n =
  let sys = Descriptor.random_stable ~seed ~n ~p:1 ~q:1 () in
  (Descriptor.e_dense sys, Descriptor.a_dense sys)

(* the column engine on explicit dense (E_k, D_k) terms, naive history
   scan *)
let solve_terms ~terms ~a ~bu =
  let ds = List.map snd terms in
  Engine.solve
    (Engine.prepare Engine.default
       (Engine.pencil (List.map Csr.of_dense (List.map fst terms @ [ a ])))
       (Engine.triangular ~orders:(List.map (fun _ -> 1.0) ds) ds))
    bu

(* the order-1 form: running alternating sum over the given steps *)
let solve_linear ~steps ~e ~a ~bu =
  Engine.solve
    (Engine.prepare Engine.default
       (Engine.pencil [ Csr.of_dense e; Csr.of_dense a ])
       (Engine.alternating steps))
    bu

let test_engine_column_equals_kron () =
  let e, a = random_system 3 5 in
  let m = 9 in
  let grid = Grid.uniform ~t_end:1.0 ~m in
  let d = Block_pulse.differential_matrix grid in
  let st = Random.State.make [| 4 |] in
  let bu = Mat.init 5 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let x1 = solve_terms ~terms:[ (e, d) ] ~a ~bu in
  let x2 = Engine.solve_dense_kron ~terms:[ (e, d) ] ~a ~bu in
  close "identical" 0.0 (Mat.max_abs_diff x1 x2) ~tol:1e-8

(* the sparse column engine against the dense Kronecker solve of a
   fractional term *)
let test_engine_sparse_equals_dense () =
  let e, a = random_system 11 12 in
  let m = 7 in
  let grid = Grid.uniform ~t_end:2.0 ~m in
  let d = Block_pulse.fractional_differential_matrix grid 0.6 in
  let st = Random.State.make [| 5 |] in
  let bu = Mat.init 12 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let xs = solve_terms ~terms:[ (e, d) ] ~a ~bu in
  let xd = Engine.solve_dense_kron ~terms:[ (e, d) ] ~a ~bu in
  close "identical" 0.0 (Mat.max_abs_diff xd xs) ~tol:1e-9

let test_engine_multi_term_kron () =
  (* two terms: E₂ẍ-like + E₁ẋ-like against the Kronecker oracle *)
  let e2, _ = random_system 21 4 in
  let e1, a = random_system 22 4 in
  let m = 6 in
  let grid = Grid.uniform ~t_end:1.0 ~m in
  let d1 = Block_pulse.differential_matrix grid in
  let d2 = Block_pulse.fractional_differential_matrix grid 2.0 in
  let st = Random.State.make [| 6 |] in
  let bu = Mat.init 4 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let terms = [ (e2, d2); (e1, d1) ] in
  let x1 = solve_terms ~terms ~a ~bu in
  let x2 = Engine.solve_dense_kron ~terms ~a ~bu in
  close "identical" 0.0 (Mat.max_abs_diff x1 x2) ~tol:1e-7

let test_engine_residual () =
  (* the solution actually satisfies E X D = A X + BU *)
  let e, a = random_system 31 6 in
  let m = 8 in
  let grid = Grid.geometric ~t_end:1.0 ~m ~ratio:1.3 in
  let d = Block_pulse.differential_matrix grid in
  let st = Random.State.make [| 7 |] in
  let bu = Mat.init 6 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let x = solve_terms ~terms:[ (e, d) ] ~a ~bu in
  let residual = Mat.sub (Mat.mul (Mat.mul e x) d) (Mat.add (Mat.mul a x) bu) in
  close "residual" 0.0 (Mat.max_abs_diff residual (Mat.zeros 6 m)) ~tol:1e-7

let test_linear_fast_path_equals_generic () =
  (* the §III-A special-pattern recurrence vs the generic triangular
     engine with the explicit D matrix, on uniform and adaptive grids *)
  let e, a = random_system 51 7 in
  List.iter
    (fun grid ->
      let m = Grid.size grid in
      let st = Random.State.make [| 8 |] in
      let bu = Mat.init 7 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
      let d = Block_pulse.differential_matrix grid in
      let x_generic = solve_terms ~terms:[ (e, d) ] ~a ~bu in
      let x_fast = solve_linear ~steps:(Grid.steps grid) ~e ~a ~bu in
      close "fast = generic" 0.0 (Mat.max_abs_diff x_fast x_generic) ~tol:1e-8)
    [ Grid.uniform ~t_end:2.0 ~m:12; Grid.adaptive [| 0.2; 0.5; 0.1; 0.7; 0.3 |] ]

(* regression: the order-1 fast path now skips the E·salt coupling
   matvec whenever the running alternating sum is exactly zero (column
   0, and any column where the sum cancels to ±0.0 in every entry).
   The skip must be invisible: a straight-line replica of the historical
   recurrence — the pencil 2/h·E − A summed as the engine sums it, the
   same sparse factorisation and solve, the same operation order,
   coupling matvec applied *unconditionally* — must produce bit-identical
   columns, because E·0 = 0 and adding ±0.0 never changes a float. *)
let test_linear_salt_skip_bit_identity () =
  let n = 6 in
  let e, a = random_system 77 n in
  let grid = Grid.uniform ~t_end:1.5 ~m:40 in
  let steps = Grid.steps grid in
  let m = Array.length steps in
  let st = Random.State.make [| 21 |] in
  let bu = Mat.init n m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let reference =
    let e = Csr.of_dense e and a = Csr.of_dense a in
    let x = Mat.zeros n m in
    let salt = Array.make n 0.0 in
    let lu = ref None in
    for i = 0 to m - 1 do
      let h = steps.(i) in
      let rhs = Array.init n (fun r -> Mat.get bu r i) in
      let sign = if i land 1 = 1 then -1.0 else 1.0 in
      let coupling = Csr.mul_vec e salt in
      Vec.axpy (-4.0 /. h *. sign) coupling rhs;
      let f =
        match !lu with
        | Some f -> f
        | None ->
            let f = Slu.factor (Csr.add ~alpha:1.0 ~beta:(2.0 /. h) (Csr.scale (-1.0) a) e) in
            lu := Some f;
            f
      in
      let xi = Slu.solve f rhs in
      Mat.set_col x i xi;
      Vec.axpy sign xi salt
    done;
    x
  in
  let fast = solve_linear ~steps ~e ~a ~bu in
  for i = 0 to m - 1 do
    for r = 0 to n - 1 do
      if Mat.get fast r i <> Mat.get reference r i then
        Alcotest.failf "column %d row %d: %.17g <> %.17g (not bit-identical)"
          i r (Mat.get fast r i) (Mat.get reference r i)
    done
  done

(* Each pencil owns a factor cache keyed on the block's full identity
   and bounded at 64 entries (reset on overflow). A fully-adaptive grid
   factors once per distinct step; a uniform grid factors once, at
   compile, and every later query is served from the cache. *)
let test_factor_cache_bounded () =
  let sys = Multi_term.of_linear (Descriptor.random_stable ~seed:61 ~n:3 ~p:1 ~q:1 ()) in
  let m = 512 in
  let adaptive =
    Compiled_model.compile ~grid:(Grid.geometric ~t_end:1.0 ~m ~ratio:1.005) sys
  in
  ignore (Compiled_model.solve adaptive [| step |] : Sim_result.t);
  check_int "every distinct step is a factorisation" m
    (Compiled_model.factorisations adaptive);
  let m = 16 in
  let uniform = Compiled_model.compile ~grid:(Grid.uniform ~t_end:1.0 ~m) sys in
  for _ = 1 to m do
    ignore (Compiled_model.solve uniform [| step |] : Sim_result.t)
  done;
  check_int "uniform grid factorises once" 1 (Compiled_model.factorisations uniform);
  check_bool "uniform grid hits the cache" true
    (Compiled_model.factor_reuse uniform >= m - 1)

let test_linear_fast_path_adaptive_512 () =
  (* end-to-end: the cached fast path on a 512-step fully-adaptive grid
     (every lookup misses and evicts) still matches the generic engine *)
  let e, a = random_system 61 3 in
  let m = 512 in
  let grid = Grid.geometric ~t_end:1.0 ~m ~ratio:1.005 in
  let st = Random.State.make [| 9 |] in
  let bu = Mat.init 3 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let d = Block_pulse.differential_matrix grid in
  let x_generic = solve_terms ~terms:[ (e, d) ] ~a ~bu in
  let x_fast = solve_linear ~steps:(Grid.steps grid) ~e ~a ~bu in
  close "adaptive 512-step fast path = generic" 0.0
    (Mat.max_abs_diff x_fast x_generic) ~tol:1e-6

let test_engine_dimension_check () =
  let e, a = random_system 41 3 in
  let d = Block_pulse.differential_matrix (Grid.uniform ~t_end:1.0 ~m:4) in
  check_bool "bu size mismatch rejected" true
    (try
       ignore (solve_terms ~terms:[ (e, d) ] ~a ~bu:(Mat.zeros 3 5));
       false
     with Invalid_argument _ -> true)

(* ---------- Opm.simulate_linear vs analytic ---------- *)

let rc = Descriptor.scalar ~e:1.0 ~a:(-1.0) ~b:1.0

let test_linear_rc_step () =
  let grid = Grid.uniform ~t_end:5.0 ~m:200 in
  let r = Opm.simulate_linear ~grid rc [| step |] in
  check_bool "max err < 1e-4" true
    (max_err_against (fun t -> 1.0 -. exp (-.t)) r < 1e-4)

let test_linear_rc_sine () =
  (* forced response of ẋ = −x + sin(ωt): exact from phasor + transient *)
  let w = 2.0 in
  let src = Source.Sine { amplitude = 1.0; freq_hz = w /. (2.0 *. Float.pi); phase = 0.0; offset = 0.0 } in
  let grid = Grid.uniform ~t_end:6.0 ~m:600 in
  let r = Opm.simulate_linear ~grid rc [| src |] in
  let exact t =
    (* x = (sin wt − w cos wt + w e^{−t})/(1+w²) *)
    ((sin (w *. t)) -. (w *. cos (w *. t)) +. (w *. exp (-.t))) /. (1.0 +. (w *. w))
  in
  check_bool "max err < 2e-4" true (max_err_against exact r < 2e-4)

let test_linear_dae () =
  (* DAE: x1' = −x1 + u; 0 = x2 − 2·x1 (E singular) *)
  let e = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let a = Mat.of_arrays [| [| -1.0; 0.0 |]; [| -2.0; 1.0 |] |] in
  let b = Mat.of_arrays [| [| 1.0 |]; [| 0.0 |] |] in
  let c = Mat.of_arrays [| [| 0.0; 1.0 |] |] in
  let sys = Descriptor.of_dense ~e ~a ~b ~c () in
  let grid = Grid.uniform ~t_end:5.0 ~m:300 in
  let r = Opm.simulate_linear ~grid sys [| step |] in
  check_bool "algebraic variable tracks 2x₁" true
    (max_err_against (fun t -> 2.0 *. (1.0 -. exp (-.t))) r < 2e-4)

let test_linear_convergence_order () =
  (* halving h must shrink the error superlinearly (≈ O(h²) at midpoints) *)
  let err m =
    let grid = Grid.uniform ~t_end:2.0 ~m in
    max_err_against (fun t -> 1.0 -. exp (-.t))
      (Opm.simulate_linear ~grid rc [| step |])
  in
  let e1 = err 50 and e2 = err 100 and e3 = err 200 in
  check_bool "monotone" true (e1 > e2 && e2 > e3);
  check_bool "at least order 1.5" true (e1 /. e2 > 2.8 && e2 /. e3 > 2.8)

let test_linear_two_inputs () =
  (* superposition: response to (u1, u2) = response u1 + response u2 *)
  let sys =
    Descriptor.of_dense
      ~e:(Mat.eye 2)
      ~a:(Mat.of_arrays [| [| -1.0; 0.2 |]; [| 0.1; -2.0 |] |])
      ~b:(Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |])
      ~c:(Mat.eye 2) ()
  in
  let grid = Grid.uniform ~t_end:3.0 ~m:60 in
  let both = Opm.simulate_linear ~grid sys [| step; Source.Dc 0.5 |] in
  let only1 = Opm.simulate_linear ~grid sys [| step; Source.Dc 0.0 |] in
  let only2 = Opm.simulate_linear ~grid sys [| Source.Dc 0.0; Source.Dc 0.5 |] in
  let sum = Mat.add only1.Sim_result.x only2.Sim_result.x in
  close "superposition" 0.0 (Mat.max_abs_diff both.Sim_result.x sum) ~tol:1e-10

let test_linear_source_count_mismatch () =
  let grid = Grid.uniform ~t_end:1.0 ~m:4 in
  check_bool "raises" true
    (try
       ignore (Opm.simulate_linear ~grid rc [| step; step |]);
       false
     with Invalid_argument _ -> true)

(* ---------- fractional ---------- *)

let test_fractional_relaxation_ml () =
  let grid = Grid.uniform ~t_end:2.0 ~m:400 in
  let r = Opm.simulate_fractional ~grid ~alpha:0.5 rc [| step |] in
  check_bool "tracks Mittag-Leffler" true
    (max_err_against (Special.ml_step_response ~alpha:0.5 ~lambda:1.0) r < 1e-2)

let test_fractional_alpha1_equals_linear () =
  let grid = Grid.uniform ~t_end:3.0 ~m:64 in
  let rf = Opm.simulate_fractional ~grid ~alpha:1.0 rc [| step |] in
  let rl = Opm.simulate_linear ~grid rc [| step |] in
  close "identical" 0.0 (Mat.max_abs_diff rf.Sim_result.x rl.Sim_result.x) ~tol:1e-10

let test_fractional_alpha_sweep_monotone_start () =
  (* smaller α responds faster at short times for relaxation *)
  let grid = Grid.uniform ~t_end:1.0 ~m:128 in
  let early alpha =
    let r = Opm.simulate_fractional ~grid ~alpha rc [| step |] in
    (Sim_result.output r 0).(6)
  in
  let a03 = early 0.3 and a06 = early 0.6 and a09 = early 0.9 in
  check_bool "fractional memory effect" true (a03 > a06 && a06 > a09)

let test_fractional_adaptive_grid () =
  (* geometric (distinct-step) grid exercises the Parlett path end-to-end *)
  let grid = Grid.geometric ~t_end:2.0 ~m:24 ~ratio:1.2 in
  let r = Opm.simulate_fractional ~grid ~alpha:0.5 rc [| step |] in
  check_bool "tracks Mittag-Leffler" true
    (max_err_against (Special.ml_step_response ~alpha:0.5 ~lambda:1.0) r < 5e-2)

let test_fractional_convergence () =
  let err m =
    let grid = Grid.uniform ~t_end:2.0 ~m in
    max_err_against
      (Special.ml_step_response ~alpha:0.5 ~lambda:1.0)
      (Opm.simulate_fractional ~grid ~alpha:0.5 rc [| step |])
  in
  let e1 = err 100 and e2 = err 400 in
  check_bool "refines" true (e2 < 0.6 *. e1)

(* ---------- high-order / multi-term ---------- *)

let test_second_order_oscillator () =
  (* ẍ = −x + u, step: x = 1 − cos t *)
  let mt =
    Multi_term.make ~terms:[ (Csr.eye 1, 2.0) ]
      ~a:(Csr.of_dense (Mat.of_arrays [| [| -1.0 |] |]))
      ~b:(Mat.eye 1) ~c:(Mat.eye 1) ()
  in
  let grid = Grid.uniform ~t_end:6.28 ~m:1000 in
  let r = Opm.simulate_multi_term ~grid mt [| step |] in
  check_bool "1 − cos t" true (max_err_against (fun t -> 1.0 -. cos t) r < 1e-4)

let test_damped_oscillator () =
  (* ẍ + 2ζω ẋ + ω² x = ω² u with ζ = 0.5, ω = 2 *)
  let zeta = 0.5 and w = 2.0 in
  let mt =
    Multi_term.second_order ~m2:(Csr.eye 1)
      ~m1:(Csr.scale (2.0 *. zeta *. w) (Csr.eye 1))
      ~m0:(Csr.scale (w *. w) (Csr.eye 1))
      ~b:(Mat.scale (w *. w) (Mat.eye 1))
      ~c:(Mat.eye 1) ()
  in
  let grid = Grid.uniform ~t_end:8.0 ~m:2000 in
  let r = Opm.simulate_multi_term ~grid mt [| step |] in
  let wd = w *. sqrt (1.0 -. (zeta *. zeta)) in
  let exact t =
    1.0
    -. (exp (-.zeta *. w *. t)
       *. (cos (wd *. t) +. (zeta *. w /. wd *. sin (wd *. t))))
  in
  check_bool "underdamped step response" true (max_err_against exact r < 5e-4)

let test_mixed_order_terms () =
  (* ẋ + d^{1/2}x = −x + u has no elementary solution; check engine
     consistency against the Kronecker oracle instead *)
  let m = 8 in
  let grid = Grid.uniform ~t_end:1.0 ~m in
  let d1 = Block_pulse.differential_matrix grid in
  let d12 = Block_pulse.fractional_differential_matrix grid 0.5 in
  let e = Mat.eye 1 and a = Mat.of_arrays [| [| -1.0 |] |] in
  let bu = Mat.init 1 m (fun _ _ -> 1.0) in
  let terms = [ (e, d1); (e, d12) ] in
  let x1 = solve_terms ~terms ~a ~bu in
  let x2 = Engine.solve_dense_kron ~terms ~a ~bu in
  close "column = kron" 0.0 (Mat.max_abs_diff x1 x2) ~tol:1e-9

let test_companion_form () =
  (* damped oscillator: OPM on the 2nd-order form vs trapezoidal on the
     companion first-order form [x; ẋ]' = [0 1; −ω² −2ζω] [x; ẋ] + [0; ω²] u *)
  let zeta = 0.4 and w = 3.0 in
  let mt =
    Multi_term.second_order ~m2:(Csr.eye 1)
      ~m1:(Csr.scale (2.0 *. zeta *. w) (Csr.eye 1))
      ~m0:(Csr.scale (w *. w) (Csr.eye 1))
      ~b:(Mat.scale (w *. w) (Mat.eye 1))
      ~c:(Mat.eye 1) ()
  in
  let first =
    Descriptor.of_dense ~e:(Mat.eye 2)
      ~a:(Mat.of_arrays [| [| 0.0; 1.0 |]; [| -.(w *. w); -2.0 *. zeta *. w |] |])
      ~b:(Mat.of_arrays [| [| 0.0 |]; [| w *. w |] |])
      ~c:(Mat.of_arrays [| [| 1.0; 0.0 |] |])
      ()
  in
  let t_end = 6.0 in
  let m = 3000 in
  let opm = Opm.simulate_multi_term ~grid:(Grid.uniform ~t_end ~m) mt [| step |] in
  let trap =
    Opm_transient.Stepper.solve ~scheme:Opm_transient.Stepper.Trapezoidal
      ~h:(t_end /. float_of_int m) ~t_end first [| step |]
  in
  check_bool "agrees below −55 dB" true
    (Error.waveform_error_db ~reference:opm.Sim_result.outputs trap < -55.0)

let test_input_derivative_handling () =
  (* ẋ = −x + u̇ with u = ramp(slope 1): u̇ = step, so the response must
     equal the step response *)
  let mt_deriv =
    Multi_term.make ~input_order:1 ~terms:[ (Csr.eye 1, 1.0) ]
      ~a:(Csr.of_dense (Mat.of_arrays [| [| -1.0 |] |]))
      ~b:(Mat.eye 1) ~c:(Mat.eye 1) ()
  in
  let grid = Grid.uniform ~t_end:4.0 ~m:256 in
  let r = Opm.simulate_multi_term ~grid mt_deriv [| Source.Ramp { slope = 1.0; delay = 0.0 } |] in
  check_bool "du/dt of ramp acts like step" true
    (max_err_against (fun t -> 1.0 -. exp (-.t)) r < 2e-2)

(* ---------- initial conditions & integral form ---------- *)

let test_x0_discharge () =
  (* ẋ = −x, x(0) = 1: x = e^{−t} *)
  let grid = Grid.uniform ~t_end:5.0 ~m:400 in
  let r = Opm.simulate_multi_term ~x0:[| 1.0 |] ~grid (Multi_term.of_linear rc) [| Source.Dc 0.0 |] in
  check_bool "tracks e^{−t}" true (max_err_against (fun t -> exp (-.t)) r < 1e-4)

let test_x0_fractional_discharge () =
  (* d^α x = −x, x(0) = 1: x = E_α(−t^α) *)
  let grid = Grid.uniform ~t_end:2.0 ~m:600 in
  let r =
    Opm.simulate_multi_term ~x0:[| 1.0 |] ~grid (Multi_term.of_fractional ~alpha:0.5 rc) [| Source.Dc 0.0 |]
  in
  let y = Sim_result.output r 0 in
  let mids = Grid.midpoints grid in
  let err = ref 0.0 in
  Array.iteri
    (fun i t ->
      if i > 5 then
        err :=
          Float.max !err
            (Float.abs (y.(i) -. Special.ml_relaxation ~alpha:0.5 ~lambda:1.0 t)))
    mids;
  check_bool "tracks Mittag-Leffler" true (!err < 2e-3)

let test_x0_superposition () =
  (* response(x0, u) = response(x0, 0) + response(0, u) *)
  let sys = Descriptor.random_stable ~seed:21 ~n:5 ~p:1 ~q:1 () in
  let grid = Grid.uniform ~t_end:1.0 ~m:64 in
  let x0 = Array.init 5 (fun i -> 0.3 *. float_of_int (i - 2)) in
  let both = Opm.simulate_multi_term ~x0 ~grid (Multi_term.of_linear sys) [| step |] in
  let only_x0 = Opm.simulate_multi_term ~x0 ~grid (Multi_term.of_linear sys) [| Source.Dc 0.0 |] in
  let only_u = Opm.simulate_linear ~grid sys [| step |] in
  let sum = Mat.add only_x0.Sim_result.x only_u.Sim_result.x in
  (* subtract the doubly-counted x0 offset: both solutions include x0 in
     only_x0, and only_u starts at 0 — the sum double counts nothing *)
  close "superposition" 0.0 (Mat.max_abs_diff both.Sim_result.x sum) ~tol:1e-9

let test_x0_size_check () =
  let grid = Grid.uniform ~t_end:1.0 ~m:4 in
  check_bool "raises" true
    (try
       ignore (Opm.simulate_multi_term ~x0:[| 1.0; 2.0 |] ~grid (Multi_term.of_linear rc) [| step |]);
       false
     with Invalid_argument _ -> true)

(* The integral form E·X = A·X·H + B·U·H + E·x₀·1ᵀ (the lineage of the
   paper's refs [2], [4]) is the discrete system the differential route
   solves, because D = H⁻¹. Solved densely through the Kronecker
   reference (terms (E, I) and (−A, H)), it matches simulate_linear
   with and without x₀ on a uniform and an adaptive grid. *)
let test_integral_form_equals_differential () =
  let sys = Descriptor.random_stable ~seed:33 ~n:6 ~p:1 ~q:2 () in
  let src = [| Source.Sine { amplitude = 1.0; freq_hz = 0.4; phase = 0.2; offset = 0.1 } |] in
  let e = Csr.to_dense sys.Descriptor.e and a = Csr.to_dense sys.Descriptor.a in
  List.iter
    (fun (grid, x0) ->
      let m = Grid.size grid in
      let h = Block_pulse.integral_matrix grid in
      let ex0 = Mat.mul_vec e (Option.value x0 ~default:(Vec.zeros 6)) in
      let buh = Mat.mul (Mat.mul sys.Descriptor.b (Opm.input_coefficients ~grid src)) h in
      let integral =
        Engine.solve_dense_kron
          ~terms:[ (e, Mat.eye m); (Mat.scale (-1.0) a, h) ]
          ~a:(Mat.zeros 6 6)
          ~bu:(Mat.init 6 m (fun r j -> Mat.get buh r j +. ex0.(r)))
      in
      let rd = Opm.simulate_multi_term ?x0 ~grid (Multi_term.of_linear sys) src in
      close "integral = differential" 0.0 (Mat.max_abs_diff integral rd.Sim_result.x)
        ~tol:1e-10)
    (List.concat_map
       (fun grid -> [ (grid, None); (grid, Some (Array.init 6 (fun i -> 0.3 *. float_of_int (i - 2)))) ])
       [ Grid.uniform ~t_end:3.0 ~m:32; Grid.adaptive [| 0.5; 0.2; 0.8; 0.1 |] ])

(* Legendre–Gauss collocation — the spectral basis at its default
   a = b = 0 — on a smooth input and on an x₀ discharge *)
let test_legendre_solver_spectral () =
  (* smooth input: a handful of Legendre–Gauss nodes beats as many
     block pulses *)
  let src = [| Source.Sine { amplitude = 1.0; freq_hz = 0.4; phase = 0.2; offset = 0.1 } |] in
  let t_end = 5.0 in
  let fine =
    Opm.simulate_linear ~grid:(Grid.uniform ~t_end ~m:20000) rc src
  in
  let grid = Grid.uniform ~t_end ~m:14 in
  let spectral = (Opm.simulate_multi_term ~basis:`Spectral ~grid (Multi_term.of_linear rc) src).Sim_result.outputs in
  let err_leg =
    Error.waveform_error_db
      ~reference:(Waveform.resample fine.Sim_result.outputs spectral.Waveform.times)
      spectral
  in
  let rb = Opm.simulate_linear ~grid rc src in
  let err_bpf =
    Error.waveform_error_db ~reference:fine.Sim_result.outputs
      rb.Sim_result.outputs
  in
  check_bool
    (Printf.sprintf "legendre %.1f dB far below bpf %.1f dB at m=14" err_leg
       err_bpf)
    true
    (err_leg < err_bpf -. 20.0)

let test_legendre_solver_x0 () =
  let wl =
    (Opm.simulate_multi_term ~basis:`Spectral ~x0:[| 1.0 |]
       ~grid:(Grid.uniform ~t_end:4.0 ~m:16) (Multi_term.of_linear rc) [| Source.Dc 0.0 |])
      .Sim_result.outputs
  in
  let y = Waveform.channel wl 0 in
  let err = ref 0.0 in
  Array.iteri
    (fun i t -> err := Float.max !err (Float.abs (y.(i) -. exp (-.t))))
    wl.Waveform.times;
  check_bool (Printf.sprintf "spectral discharge (error %.2g)" !err) true (!err < 1e-6)

(* ---------- result packaging ---------- *)

let test_result_waveform_shape () =
  let grid = Grid.uniform ~t_end:1.0 ~m:16 in
  let r = Opm.simulate_linear ~grid rc [| step |] in
  check_int "samples" 16 (Array.length r.Sim_result.outputs.Waveform.times);
  check_int "channels" 1 (Waveform.channel_count r.Sim_result.outputs);
  check_int "state rows" 1 (fst (Mat.dims r.Sim_result.x));
  close "times are midpoints" (Grid.midpoints grid).(3)
    r.Sim_result.outputs.Waveform.times.(3)

let test_input_coefficients () =
  let grid = Grid.uniform ~t_end:1.0 ~m:4 in
  let u = Opm.input_coefficients ~grid [| Source.Ramp { slope = 1.0; delay = 0.0 } |] in
  (* coefficients are interval averages of t: (i+1/2)h *)
  close "u0" 0.125 (Mat.get u 0 0) ~tol:1e-12;
  close "u3" 0.875 (Mat.get u 0 3) ~tol:1e-12

(* ---------- input derivative ---------- *)

(* On a uniform grid U·D^r runs as r passes of the recurrence
   y_i = (2/h)(u_i − u_{i−1}) − y_{i−1}; it must stay within 1e-12 of
   the dense product with D. *)
let test_input_order_recurrence () =
  let m = 300 in
  let grid = Grid.uniform ~t_end:2.0 ~m in
  let sys = Descriptor.random_stable ~seed:5 ~n:3 ~p:2 ~q:1 () in
  let sources =
    [|
      Source.Sine { amplitude = 1.0; freq_hz = 1.3; phase = 0.4; offset = 0.2 };
      Source.Ramp { slope = 2.0; delay = 0.3 };
    |]
  in
  let u = Opm.input_coefficients ~grid sources in
  let d = Block_pulse.differential_matrix grid in
  List.iter
    (fun order ->
      let mt =
        Multi_term.make ~input_order:order
          ~terms:[ (sys.Descriptor.e, 1.0) ]
          ~a:sys.Descriptor.a ~b:sys.Descriptor.b ~c:sys.Descriptor.c ()
      in
      let rec dense u k = if k = 0 then u else dense (Mat.mul u d) (k - 1) in
      let want = Mat.mul sys.Descriptor.b (dense u order) in
      let got = Compiled_model.bu_matrix ~grid mt sources in
      let rel = Mat.max_abs_diff got want /. Mat.norm_inf want in
      if rel > 1e-12 then
        Alcotest.failf "input order %d: recurrence vs dense U·D^r %.3g > 1e-12" order rel)
    [ 1; 2; 3 ]

(* ---------- cross-route oracle ---------- *)

(* The uniform-grid [toeplitz] history against two references that solve
   the same discrete system another way: [triangular] fed the dense
   uniform D_k (the plain column scan of the operational matrices, the
   adaptive-grid route) and the Kronecker solve of paper eq. (15). The
   routes may round differently, so they agree to a relative tolerance,
   not bit for bit. *)
let test_toeplitz_oracle () =
  let n = 3 in
  let coupled seed =
    let st = Random.State.make [| seed |] in
    Mat.init n n (fun i j ->
        if i = j then 1.0 +. Random.State.float st 1.0
        else 0.3 *. (Random.State.float st 2.0 -. 1.0))
  in
  let systems =
    [ [ 0.5 ]; [ 1.0 ]; [ 1.5 ]; [ 2.0 ]; [ 2.5 ]; [ 2.0; 1.0 ]; [ 1.0; 0.5 ]; [ 2.5; 0.5 ] ]
  in
  List.iteri
    (fun si orders ->
      let es = List.mapi (fun k _ -> coupled ((100 * si) + k)) orders in
      let _, a = random_system (90 + si) n in
      List.iter
        (fun m ->
          let t_end = 2.0 in
          let grid = Grid.uniform ~t_end ~m in
          let ds = List.map (Block_pulse.fractional_differential_matrix grid) orders in
          let bu =
            Mat.init n m (fun r i ->
                0.5 +. sin ((0.37 *. float_of_int (i + 1)) +. float_of_int r))
          in
          let kron = Engine.solve_dense_kron ~terms:(List.combine es ds) ~a ~bu in
          let pencil = Engine.pencil (List.map Csr.of_dense (es @ [ a ])) in
          let run history = Engine.solve (Engine.prepare Engine.default pencil history) bu in
          let x = run (Engine.toeplitz ~orders ~step:(t_end /. float_of_int m) m) in
          let rel reference =
            Mat.max_abs_diff x reference /. Float.max (Mat.norm_inf reference) 1e-300
          in
          let tag =
            Printf.sprintf "α = [%s], m = %d"
              (String.concat "; " (List.map string_of_float orders))
              m
          in
          let within what r =
            if r > 1e-9 then Alcotest.failf "%s: toeplitz vs %s %.3g > 1e-9" tag what r
          in
          within "triangular" (rel (run (Engine.triangular ~orders ds)));
          within "kron" (rel kron))
        [ 1; 2; 7; 32; 33; 48; 64; 65 ])
    systems

(* ---------- rounding ---------- *)

(* Double-double arithmetic (value hi + lo) from error-free
   transformations: [two_sum] and an [Float.fma] two-product. *)
let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  (s, (a -. (s -. bb)) +. (b -. bb))

let dd_norm s e =
  let h = s +. e in
  (h, e -. (h -. s))

let dd_add (ah, al) (bh, bl) =
  let s, e = two_sum ah bh in
  dd_norm s (e +. al +. bl)

let dd_mul (ah, al) (bh, bl) =
  let p = ah *. bh in
  dd_norm p (Float.fma ah bh (-.p) +. (ah *. bl) +. (al *. bh))

let dd_div a (bh, bl) =
  let q1 = fst a /. bh in
  let rh, rl = dd_add a (dd_mul (-.q1, 0.0) (bh, bl)) in
  dd_norm q1 ((rh +. rl) /. bh)

let dd x = (x, 0.0)

(* The scalar oscillator D^α x = −(6π)² x + 1 (step input, t_end = 1) at
   m = 4096, solved by the uniform-grid engine and, as the reference, by
   a double-double scan of the same discrete system: the same float s =
   (2/h)^α and ω², with ρ_α the Cauchy product of its two binomial
   series. Both sides share the discretisation, so the difference is the
   engine's rounding alone. A plain double scan of ρ_α, the growing
   kernel of α > 1, misses the bounds by 38× (α = 1.5), 175× (α = 2) and
   1.3·10⁴× (α = 2.5). *)
let test_oscillator_rounding () =
  let m = 4096 in
  let step = 1.0 /. float_of_int m in
  let w2 = (6.0 *. Float.pi) *. (6.0 *. Float.pi) in
  let pencil = Engine.pencil [ Csr.eye 1; Csr.scale (-.w2) (Csr.eye 1) ] in
  List.iter
    (fun (alpha, bound) ->
      let x =
        Engine.solve
          (Engine.prepare Engine.default pencil
             (Engine.toeplitz ~orders:[ alpha ] ~step m))
          (Mat.init 1 m (fun _ _ -> 1.0))
      in
      (* ρ_α = (1−q)^α · (1+q)^{−α}, C(a, k) = C(a, k−1)·(a − k + 1)/k *)
      let binomial a =
        let c = Array.make m (dd 1.0) in
        for k = 1 to m - 1 do
          c.(k) <- dd_div (dd_mul c.(k - 1) (dd (a -. float_of_int (k - 1)))) (dd (float_of_int k))
        done;
        c
      in
      let num = Array.mapi (fun k (h, l) -> if k land 1 = 1 then (-.h, -.l) else (h, l)) (binomial alpha) in
      let den = binomial (-.alpha) in
      let s = dd ((2.0 /. step) ** alpha) in
      let kernel =
        Array.init m (fun k ->
            let acc = ref (dd 0.0) in
            for i = 0 to k do
              acc := dd_add !acc (dd_mul num.(i) den.(k - i))
            done;
            dd_mul s !acc)
      in
      let diag = dd_add kernel.(0) (dd w2) in
      let xs = Array.make m (dd 0.0) in
      for i = 0 to m - 1 do
        let acc = ref (dd 1.0) in
        for j = 0 to i - 1 do
          let kh, kl = dd_mul kernel.(i - j) xs.(j) in
          acc := dd_add !acc (-.kh, -.kl)
        done;
        xs.(i) <- dd_div !acc diag
      done;
      let err = ref 0.0 and scale = ref 0.0 in
      Array.iteri
        (fun i (h, l) ->
          err := Float.max !err (Float.abs (Mat.get x 0 i -. h -. l));
          scale := Float.max !scale (Float.abs h))
        xs;
      let rel = !err /. !scale in
      if rel > bound then
        Alcotest.failf "α = %g: rounding error %.3g > %.0e against the double-double scan"
          alpha rel bound)
    [ (1.5, 1e-9); (2.0, 1e-9); (2.5, 1e-5) ]

(* ---------- frozen bits ---------- *)

(* Every engine route, pinned to its exact output bits: the FNV-1a-64
   digest of [Int64.bits_of_float] over every entry of the coefficient
   matrix (row-major, bytes little-endian). A refactor of the column
   engine must reproduce these bit for bit; a digest may only change
   together with an intended change of the arithmetic. *)
let fnv1a64_bits x =
  let rows, cols = Mat.dims x in
  let h = ref 0xcbf29ce484222325L in
  for r = 0 to rows - 1 do
    for i = 0 to cols - 1 do
      let bits = Int64.bits_of_float (Mat.get x r i) in
      for b = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical bits (8 * b)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done
    done
  done;
  Printf.sprintf "%016Lx" !h

let frozen_routes () =
  let sys = Descriptor.random_stable ~seed:17 ~n:6 ~p:1 ~q:1 () in
  let src =
    [| Source.Sine { amplitude = 1.0; freq_hz = 0.4; phase = 0.3; offset = 0.2 } |]
  in
  let uniform m = Grid.uniform ~t_end:3.0 ~m in
  let adaptive = Grid.geometric ~t_end:3.0 ~m:48 ~ratio:1.03 in
  let two_term =
    Multi_term.make
      ~terms:[ (Csr.eye 6, 2.0); (sys.Descriptor.e, 1.0) ]
      ~a:sys.Descriptor.a ~b:sys.Descriptor.b ~c:sys.Descriptor.c ()
  in
  (* a first-order and a half-order term: the two-term FFT history of
     a ladder with alternating C and CPE shunts *)
  let half_order =
    Multi_term.make
      ~terms:[ (Csr.eye 6, 1.0); (sys.Descriptor.e, 0.5) ]
      ~a:sys.Descriptor.a ~b:sys.Descriptor.b ~c:sys.Descriptor.c ()
  in
  let x r = r.Sim_result.x in
  let frac ?window ?memory_len m =
    x (Opm.simulate_fractional ?window ?memory_len ~grid:(uniform m) ~alpha:0.5 sys src)
  in
  (* the AMD-ordered path at power-grid scale: a second-order NA
     (n = 768) and a first-order MNA (n = 1 280) pencil *)
  let net =
    Opm_circuit.Power_grid.(
      generate { default_spec with nx = 16; ny = 16; nz = 3; load_count = 8 })
  in
  let grid_route stamp () =
    let mt, srcs = stamp net in
    x (Opm.simulate_multi_term ~basis:`Bpf ~grid:(Grid.uniform ~t_end:1e-9 ~m:16) mt srcs)
  in
  [
    ("general short", fun () -> frac 64);
    ("general fft", fun () -> frac 512);
    ("two-term", fun () -> x (Opm.simulate_multi_term ~grid:(uniform 64) two_term src));
    ("multi-term fft", fun () -> x (Opm.simulate_multi_term ~grid:(uniform 512) half_order src));
    ("general adaptive", fun () -> x (Opm.simulate_fractional ~grid:adaptive ~alpha:0.5 sys src));
    ("order-1 uniform", fun () -> x (Opm.simulate_linear ~grid:(uniform 64) sys src));
    ("order-1 adaptive", fun () -> x (Opm.simulate_linear ~grid:adaptive sys src));
    ("windowed general", fun () -> frac ~window:16 64);
    ("windowed general memory 8", fun () -> frac ~window:16 ~memory_len:8 64);
    ( "windowed order-1",
      fun () -> x (Opm.simulate_multi_term ~window:16 ~grid:(uniform 64) (Multi_term.of_linear sys) src) );
    ( "compiled query",
      fun () ->
        let model =
          Compiled_model.compile ~grid:(uniform 64) (Multi_term.of_fractional ~alpha:0.5 sys)
        in
        ignore (Compiled_model.solve model src);
        x (Compiled_model.solve model src) );
    ("power grid NA amd", grid_route (Opm_circuit.Na2.stamp ?outputs:None));
    ("power grid MNA amd", grid_route (Opm_circuit.Mna.stamp ?outputs:None));
  ]

let frozen_digests =
  [
    ("general short", "4682a8983b603a14");
    ("general fft", "5160a2c0a91e4ae1");
    ("two-term", "09b169bacb4559cc");
    ("multi-term fft", "c16ef8cebd1f40a8");
    ("general adaptive", "2563b438fcc9f5fe");
    ("order-1 uniform", "223ae2acf69c2ba2");
    ("order-1 adaptive", "f57d396c8b326a12");
    ("windowed general", "4682a8983b603a14");
    ("windowed general memory 8", "5666757a1acc2e93");
    ("windowed order-1", "223ae2acf69c2ba2");
    ("compiled query", "4682a8983b603a14");
    ("power grid NA amd", "ab1143c67dd16384");
    ("power grid MNA amd", "5773842b2ca54b70");
  ]

let test_frozen_bits () =
  (* every route runs before the verdict, so one failure lists each
     moved digest old → new *)
  let mismatches =
    List.filter_map
      (fun (name, run) ->
        let got = fnv1a64_bits (run ()) in
        match List.assoc_opt name frozen_digests with
        | Some want when want = got -> None
        | Some want -> Some (Printf.sprintf "%s: %s → %s" name want got)
        | None -> Some (Printf.sprintf "%s: no frozen digest → %s" name got))
      (frozen_routes ())
  in
  if mismatches <> [] then
    Alcotest.failf "%d route(s) moved:\n  %s" (List.length mismatches)
      (String.concat "\n  " mismatches)

(* ---------- fractional support ---------- *)

(* [e] with every column outside [cols] zeroed: a fractional term that
   reads only those states *)
let restrict_cols e cols =
  Csr.of_dense (Mat.init 6 6 (fun r c -> if List.mem c cols then Csr.get e r c else 0.0))

(* The FFT history convolves only the states some fractional E_k reads.
   With that support a strict, odd-sized subset of the states (the last
   row of the convolver unpaired), or empty (no convolver at all), the
   engine must agree with a direct scan of the recast system over every
   state ([Recast_oracle]). *)
let test_fractional_support () =
  let sys = Descriptor.random_stable ~seed:31 ~n:6 ~p:1 ~q:1 () in
  let src =
    [| Source.Sine { amplitude = 1.0; freq_hz = 0.4; phase = 0.3; offset = 0.2 } |]
  in
  let grid = Grid.uniform ~t_end:3.0 ~m:512 in
  let metrics_were = Opm_obs.Metrics.enabled () in
  Opm_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Opm_obs.Metrics.reset ();
      Opm_obs.Metrics.set_enabled metrics_were)
  @@ fun () ->
  let counter name = Opm_obs.Metrics.(counter_value (counter name)) in
  List.iter
    (fun (name, e_frac, fft_blocks) ->
      let mt =
        Multi_term.make
          ~terms:[ (Csr.eye 6, 1.0); (e_frac, 0.5) ]
          ~a:sys.Descriptor.a ~b:sys.Descriptor.b ~c:sys.Descriptor.c ()
      in
      let reference = Recast_oracle.solve ~grid mt src in
      Opm_obs.Metrics.reset ();
      let x = (Opm.simulate_multi_term ~grid mt src).Sim_result.x in
      let rel = Mat.max_abs_diff x reference /. Mat.norm_inf reference in
      if not (rel <= 1e-10) then
        Alcotest.failf "%s: FFT history vs recast scan, rel %.3g > 1e-10" name rel;
      check_bool (name ^ ": FFT path taken as expected") fft_blocks
        (counter "engine.rhsconv.blocks" > 0);
      check_int (name ^ ": no naive columns") 0 (counter "engine.rhsconv.naive_cols"))
    [
      ("support {0, 2, 5}", restrict_cols sys.Descriptor.e [ 0; 2; 5 ], true);
      ("empty support", Csr.zero ~rows:6 ~cols:6, false);
    ]

(* ---------- re-entrant compiled queries ---------- *)

(* One row per plan kind a compiled model can take. *)
let plan_kinds () =
  let sys = Descriptor.random_stable ~seed:23 ~n:6 ~p:2 ~q:2 () in
  let mt ?input_order terms =
    Multi_term.make ?input_order ~terms ~a:sys.Descriptor.a ~b:sys.Descriptor.b
      ~c:sys.Descriptor.c ()
  in
  let half = Multi_term.of_fractional ~alpha:0.5 sys in
  let uniform m = Grid.uniform ~t_end:3.0 ~m in
  let compile ?basis ?window ?memory_len grid mt () =
    Compiled_model.compile ?basis ?window ?memory_len ~grid mt
  in
  [
    ("order-1", compile (uniform 64) (Multi_term.of_linear sys));
    ("banded integer order", compile (uniform 64) (mt [ (Csr.eye 6, 2.0); (sys.Descriptor.e, 1.0) ]));
    ( "banded fractional short",
      compile (uniform 64) (mt [ (Csr.eye 6, 1.0); (sys.Descriptor.e, 0.5) ]) );
    ( "banded fractional fft",
      compile (uniform 512) (mt [ (Csr.eye 6, 1.0); (sys.Descriptor.e, 0.5) ]) );
    ( "banded fractional fft, partial support",
      compile (uniform 512)
        (mt [ (Csr.eye 6, 1.0); (restrict_cols sys.Descriptor.e [ 1; 3; 4 ], 0.5) ]) );
    ("adaptive triangular", compile (Grid.geometric ~t_end:3.0 ~m:48 ~ratio:1.03) half);
    ("windowed", compile ~window:16 (uniform 64) half);
    ("windowed memory_len", compile ~window:16 ~memory_len:8 (uniform 64) half);
    ("windowed order-1", compile ~window:16 (uniform 64) (Multi_term.of_linear sys));
    ("spectral", compile ~basis:`Spectral (uniform 16) half);
    ( "spectral input order",
      compile ~basis:`Spectral (uniform 16) (mt ~input_order:1 [ (sys.Descriptor.e, 0.5) ]) );
  ]

(* query k's sources: every query of a sweep drives the plant
   differently *)
let sweep_sources k =
  let a = 1.0 +. (0.125 *. float_of_int k) in
  [|
    Source.Sine { amplitude = a; freq_hz = 0.4; phase = 0.1 *. float_of_int k; offset = 0.2 };
    Source.Step { amplitude = 0.5 *. a; delay = 0.7 };
  |]

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let same_outputs (a : Waveform.t) (b : Waveform.t) =
  same_bits a.times b.times
  && a.labels = b.labels
  && Array.length a.channels = Array.length b.channels
  && Array.for_all2 same_bits a.channels b.channels

(* solve_outputs streams C·x_i, but must equal solve's outputs bit for
   bit, with and without an initial state *)
let test_solve_outputs_bits () =
  List.iter
    (fun (name, make) ->
      let model = make () in
      List.iter
        (fun x0 ->
          let src = sweep_sources 3 in
          let want = (Compiled_model.solve ?x0 model src).Sim_result.outputs in
          let got = Compiled_model.solve_outputs ?x0 model src in
          if not (same_outputs want got) then
            Alcotest.failf "%s%s: solve_outputs differs from solve's outputs" name
              (if x0 = None then "" else " with x0"))
        [ None; Some (Array.init 6 (fun r -> 0.1 *. float_of_int (r + 1))) ])
    (plan_kinds ());
  (* a windowed model without a memory cutoff is the global model: both
     answers equal the global model's outputs bit for bit *)
  let sys = Descriptor.random_stable ~seed:23 ~n:6 ~p:2 ~q:2 () in
  let grid = Grid.uniform ~t_end:3.0 ~m:64 in
  List.iter
    (fun (name, mt) ->
      let src = sweep_sources 5 in
      let want = Compiled_model.solve_outputs (Compiled_model.compile ~grid mt) src in
      let windowed = Compiled_model.compile ~window:16 ~grid mt in
      if not (same_outputs want (Compiled_model.solve windowed src).Sim_result.outputs) then
        Alcotest.failf "%s: windowed solve differs from the global model" name;
      if not (same_outputs want (Compiled_model.solve_outputs windowed src)) then
        Alcotest.failf "%s: windowed solve_outputs differs from the global model" name)
    [
      ("windowed α = 0.5", Multi_term.of_fractional ~alpha:0.5 sys);
      ("windowed order-1", Multi_term.of_linear sys);
    ]

type answer = States of Mat.t | Outputs of Waveform.t

(* Query [model] with sources [k] from [first] for [count] queries:
   even k through solve, odd k through solve_outputs. *)
let sweep model ~first ~count =
  Array.init count (fun j ->
      let k = first + j in
      if k land 1 = 0 then States (Compiled_model.solve model (sweep_sources k)).Sim_result.x
      else Outputs (Compiled_model.solve_outputs model (sweep_sources k)))

let stats model =
  ( Compiled_model.queries model,
    Compiled_model.factor_reuse model,
    Compiled_model.factorisations model )

(* [domains] domains share one model, [per_domain] queries each, with
   distinct sources: every answer is bit-identical to the sequential
   sweep's, and the model's counters equal the sequential model's. *)
let check_concurrent ~domains ~per_domain name make =
  let total = domains * per_domain in
  let seq = make () in
  let want = sweep seq ~first:0 ~count:total in
  let shared = make () in
  (* the domains start their sweeps together, so their first queries
     (the ones that would race on lazily built state) overlap *)
  let ready = Atomic.make 0 in
  let got =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < domains do
              Domain.cpu_relax ()
            done;
            sweep shared ~first:(d * per_domain) ~count:per_domain))
    |> Array.map Domain.join |> Array.to_list |> Array.concat
  in
  Array.iteri
    (fun k w ->
      let same =
        match (w, got.(k)) with
        | States a, States b -> Mat.dims a = Mat.dims b && same_bits a.Mat.data b.Mat.data
        | Outputs a, Outputs b -> same_outputs a b
        | _ -> false
      in
      if not same then Alcotest.failf "%s: query %d differs from the sequential answer" name k)
    want;
  let q, reuse, fact = stats shared in
  check_int (name ^ ": queries") total q;
  let q', reuse', fact' = stats seq in
  check_int (name ^ ": sequential queries") total q';
  check_int (name ^ ": factor_reuse") reuse' reuse;
  check_int (name ^ ": factorisations") fact' fact

let test_concurrent_queries () =
  List.iter
    (fun (name, make) -> check_concurrent ~domains:2 ~per_domain:25 name make)
    (plan_kinds ())

(* the spectral input-order derivative is built at compile: forced
   lazily, two domains would race on it *)
let test_spectral_input_order_domains () =
  let make = List.assoc "spectral input order" (plan_kinds ()) in
  check_concurrent ~domains:2 ~per_domain:50 "spectral input order" make

(* the factor-once contract of a uniform model holds under concurrency:
   one factorisation at compile, one cache hit per query *)
let test_concurrent_factor_once () =
  let make = List.assoc "order-1" (plan_kinds ()) in
  let model = make () in
  Array.init 2 (fun d -> Domain.spawn (fun () -> sweep model ~first:(d * 25) ~count:25))
  |> Array.iter (fun d -> ignore (Domain.join d));
  check_int "queries" 50 (Compiled_model.queries model);
  check_int "factor_reuse" 50 (Compiled_model.factor_reuse model);
  check_int "factorisations" 1 (Compiled_model.factorisations model)

(* ---------- operational-matrix memory ---------- *)

(* A uniform grid's D^α travels as its Toeplitz first row: compiling a
   two-term (α = 1, 0.5) system at m = 4096 must allocate O(m), not the
   2·m²·8 = 268 MB two dense operational matrices would take. *)
let test_uniform_compile_allocation () =
  let sys = Descriptor.random_stable ~seed:17 ~n:6 ~p:1 ~q:1 () in
  let mt =
    Multi_term.make
      ~terms:[ (Csr.eye 6, 1.0); (sys.Descriptor.e, 0.5) ]
      ~a:sys.Descriptor.a ~b:sys.Descriptor.b ~c:sys.Descriptor.c ()
  in
  let grid = Grid.uniform ~t_end:3.0 ~m:4096 in
  let before = Gc.allocated_bytes () in
  let model = Compiled_model.compile ~grid mt in
  let mb = (Gc.allocated_bytes () -. before) /. 1048576.0 in
  ignore (Sys.opaque_identity model);
  if mb >= 16.0 then
    Alcotest.failf "compile at m = 4096 allocated %.1f MB (limit 16 MB)" mb

(* ---------- adaptive ---------- *)

let test_adaptive_accuracy () =
  let result, _stats = Adaptive.solve ~tol:1e-5 ~t_end:5.0 rc [| step |] in
  check_bool "within tolerance band" true
    (max_err_against (fun t -> 1.0 -. exp (-.t)) result < 1e-4)

let test_adaptive_grows_steps () =
  let result, stats = Adaptive.solve ~tol:1e-4 ~h_init:1e-3 ~t_end:10.0 rc [| step |] in
  let s = Grid.steps result.Sim_result.grid in
  let h_max = Array.fold_left Float.max 0.0 s in
  let h_min = Array.fold_left Float.min Float.infinity s in
  check_bool "step range spans >4x" true (h_max /. h_min >= 4.0);
  check_bool "few factorizations" true (stats.Adaptive.factorizations < 20)

let test_adaptive_covers_span () =
  let result, _ = Adaptive.solve ~tol:1e-4 ~t_end:3.0 rc [| step |] in
  close "steps sum to t_end" 3.0 (Grid.t_end result.Sim_result.grid) ~tol:1e-9

let test_adaptive_matches_uniform () =
  let sys = Descriptor.random_stable ~seed:3 ~n:6 ~p:1 ~q:1 () in
  let result, _ = Adaptive.solve ~tol:1e-7 ~t_end:2.0 sys [| step |] in
  let uniform = Opm.simulate_linear ~grid:(Grid.uniform ~t_end:2.0 ~m:4096) sys [| step |] in
  let err =
    Error.waveform_error_db ~reference:uniform.Sim_result.outputs
      result.Sim_result.outputs
  in
  check_bool "close to dense uniform answer" true (err < -60.0)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "core"
    [
      ( "descriptor",
        [
          t "dims" test_descriptor_dims;
          t "validation" test_descriptor_validation;
          t "random stable decays" test_descriptor_random_stable_is_stable;
        ] );
      ( "multi-term",
        [
          t "validation" test_multi_term_validation;
          t "of_linear" test_multi_term_of_linear;
          t "second order" test_multi_term_second_order;
        ] );
      ( "engine",
        [
          t "column = kron (paper eq. 15)" test_engine_column_equals_kron;
          t "sparse = dense" test_engine_sparse_equals_dense;
          t "multi-term vs kron" test_engine_multi_term_kron;
          t "residual of matrix equation" test_engine_residual;
          t "linear fast path" test_linear_fast_path_equals_generic;
          t "salt skip bit-identical" test_linear_salt_skip_bit_identity;
          t "factor cache bounded" test_factor_cache_bounded;
          t "fast path on 512-step adaptive grid" test_linear_fast_path_adaptive_512;
          t "dimension check" test_engine_dimension_check;
        ] );
      ( "linear",
        [
          t "RC step vs analytic" test_linear_rc_step;
          t "RC sine vs analytic" test_linear_rc_sine;
          t "DAE algebraic constraint" test_linear_dae;
          t "convergence order" test_linear_convergence_order;
          t "superposition" test_linear_two_inputs;
          t "source count mismatch" test_linear_source_count_mismatch;
        ] );
      ( "fractional",
        [
          t "relaxation vs Mittag-Leffler" test_fractional_relaxation_ml;
          t "α = 1 equals linear" test_fractional_alpha1_equals_linear;
          t "memory effect across α" test_fractional_alpha_sweep_monotone_start;
          t "adaptive grid (Parlett path)" test_fractional_adaptive_grid;
          t "mesh refinement" test_fractional_convergence;
        ] );
      ( "high-order",
        [
          t "harmonic oscillator" test_second_order_oscillator;
          t "damped oscillator" test_damped_oscillator;
          t "mixed integer + fractional" test_mixed_order_terms;
          t "companion form vs OPM" test_companion_form;
          t "input derivative" test_input_derivative_handling;
          t "input derivative recurrence = dense U·D^r" test_input_order_recurrence;
        ] );
      ( "x0-and-integral-form",
        [
          t "linear discharge" test_x0_discharge;
          t "fractional discharge" test_x0_fractional_discharge;
          t "superposition with x0" test_x0_superposition;
          t "x0 size check" test_x0_size_check;
          t "integral = differential" test_integral_form_equals_differential;
          t "legendre spectral accuracy" test_legendre_solver_spectral;
          t "legendre with x0" test_legendre_solver_x0;
        ] );
      ( "api",
        [
          t "result shape" test_result_waveform_shape;
          t "input coefficients" test_input_coefficients;
        ] );
      ("cross-route", [ t "toeplitz vs triangular and kron" test_toeplitz_oracle ]);
      ("rounding", [ t "oscillator vs double-double scan" test_oscillator_rounding ]);
      ("frozen-bits", [ t "every engine route" test_frozen_bits ]);
      ( "fractional support",
        [ t "strict and empty support, FFT vs naive" test_fractional_support ] );
      ( "re-entrant queries",
        [
          t "solve_outputs = solve's outputs, every plan" test_solve_outputs_bits;
          t "2 domains × 25 queries, every plan" test_concurrent_queries;
          t "spectral input order, 2 domains × 50" test_spectral_input_order_domains;
          t "factor-once under concurrency" test_concurrent_factor_once;
        ] );
      ( "opmatrix-memory",
        [ t "uniform compile allocates O(m)" test_uniform_compile_allocation ] );
      ( "adaptive",
        [
          t "accuracy" test_adaptive_accuracy;
          t "grows steps" test_adaptive_grows_steps;
          t "covers span" test_adaptive_covers_span;
          t "matches uniform reference" test_adaptive_matches_uniform;
        ] );
    ]
