(* Tests for the baseline transient solvers (backward Euler, trapezoidal,
   Gear/BDF2, frequency-domain FFT, Grünwald–Letnikov). *)

open Opm_numkit
open Opm_basis
open Opm_signal
open Opm_core
open Opm_transient

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)

let step = Source.Step { amplitude = 1.0; delay = 0.0 }
let rc = Descriptor.scalar ~e:1.0 ~a:(-1.0) ~b:1.0

let max_err_of w exact =
  let y = Waveform.channel w 0 in
  let err = ref 0.0 in
  Array.iteri
    (fun i t -> if t > 0.0 then err := Float.max !err (Float.abs (y.(i) -. exact t)))
    w.Waveform.times;
  !err

(* ---------- one-step schemes ---------- *)

let scheme_name = function
  | Stepper.Backward_euler -> "backward-Euler"
  | Stepper.Trapezoidal -> "trapezoidal"
  | Stepper.Gear2 -> "Gear (BDF2)"

let test_schemes_track_rc () =
  let exact t = 1.0 -. exp (-.t) in
  List.iter
    (fun (scheme, bound) ->
      let w = Stepper.solve ~scheme ~h:0.01 ~t_end:5.0 rc [| step |] in
      check_bool (scheme_name scheme) true (max_err_of w exact < bound))
    [
      (Stepper.Backward_euler, 5e-3);
      (Stepper.Trapezoidal, 1e-5);
      (Stepper.Gear2, 2e-4);
    ]

let convergence_order scheme =
  let exact t = 1.0 -. exp (-.t) in
  let err h = max_err_of (Stepper.solve ~scheme ~h ~t_end:2.0 rc [| step |]) exact in
  log (err 0.02 /. err 0.01) /. log 2.0

let test_backward_euler_order_one () =
  let p = convergence_order Stepper.Backward_euler in
  check_bool "≈ order 1" true (p > 0.8 && p < 1.3)

let test_trapezoidal_order_two () =
  let p = convergence_order Stepper.Trapezoidal in
  check_bool "≈ order 2" true (p > 1.7 && p < 2.3)

let test_gear_order_two () =
  let p = convergence_order Stepper.Gear2 in
  check_bool "≈ order 2" true (p > 1.7 && p < 2.3)

let test_schemes_on_dae () =
  (* singular E: x1' = −x1 + u; 0 = x2 − 2 x1 *)
  let e = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let a = Mat.of_arrays [| [| -1.0; 0.0 |]; [| -2.0; 1.0 |] |] in
  let b = Mat.of_arrays [| [| 1.0 |]; [| 0.0 |] |] in
  let c = Mat.of_arrays [| [| 0.0; 1.0 |] |] in
  let sys = Descriptor.of_dense ~e ~a ~b ~c () in
  let exact t = 2.0 *. (1.0 -. exp (-.t)) in
  List.iter
    (fun scheme ->
      let w = Stepper.solve ~scheme ~h:0.005 ~t_end:3.0 sys [| step |] in
      check_bool (scheme_name scheme ^ " on DAE") true
        (max_err_of w exact < 1e-2))
    [ Stepper.Backward_euler; Stepper.Trapezoidal; Stepper.Gear2 ]

let test_stepper_stability_stiff () =
  (* λ = −10⁶ with h = 0.01: A-stable schemes must not blow up *)
  let stiff = Descriptor.scalar ~e:1.0 ~a:(-1e6) ~b:1e6 in
  List.iter
    (fun scheme ->
      let w = Stepper.solve ~scheme ~h:0.01 ~t_end:1.0 stiff [| step |] in
      let y = Waveform.channel w 0 in
      check_bool (scheme_name scheme ^ " stable") true
        (Float.abs y.(Array.length y - 1) < 2.0))
    [ Stepper.Backward_euler; Stepper.Trapezoidal; Stepper.Gear2 ]

let test_stepper_validation () =
  check_bool "h <= 0" true
    (try
       ignore (Stepper.solve ~scheme:Stepper.Gear2 ~h:0.0 ~t_end:1.0 rc [| step |]);
       false
     with Invalid_argument _ -> true);
  check_bool "source mismatch" true
    (try
       ignore (Stepper.solve ~scheme:Stepper.Gear2 ~h:0.1 ~t_end:1.0 rc [||]);
       false
     with Invalid_argument _ -> true)

(* ---------- frequency-domain (FFT) method ---------- *)

let test_fft_alpha1_rc () =
  (* with enough samples the damped-contour FFT tracks the RC answer *)
  let w = Freq_domain.solve ~n_samples:512 ~alpha:1.0 ~t_end:5.0 rc [| step |] in
  let exact t = 1.0 -. exp (-.t) in
  check_bool "tracks analytic" true (max_err_of w exact < 0.1)

let test_fft_sample_count_improves () =
  let grid = Grid.uniform ~t_end:2.0 ~m:512 in
  let opm = Opm.simulate_fractional ~grid ~alpha:0.5 rc [| step |] in
  let err n =
    let w = Freq_domain.solve ~n_samples:n ~alpha:0.5 ~t_end:2.0 rc [| step |] in
    Error.waveform_error_db ~reference:opm.Sim_result.outputs w
  in
  let e8 = err 8 and e100 = err 100 in
  check_bool "paper's FFT-2 beats FFT-1" true (e100 < e8)

let test_fft_arbitrary_sample_count () =
  (* n = 100 is not a power of two — exercises Bluestein end-to-end *)
  let w = Freq_domain.solve ~n_samples:100 ~alpha:0.5 ~t_end:2.0 rc [| step |] in
  Alcotest.(check int) "100 samples" 100 (Array.length w.Waveform.times)

let test_fft_validation () =
  check_bool "n < 2" true
    (try
       ignore (Freq_domain.solve ~n_samples:1 ~alpha:1.0 ~t_end:1.0 rc [| step |]);
       false
     with Invalid_argument _ -> true)

(* ---------- Grünwald–Letnikov ---------- *)

let test_gl_weights () =
  (* α = 1: weights are (1, −1, 0, 0, …) — the first difference *)
  let w = Grunwald.weights ~alpha:1.0 4 in
  close "w0" 1.0 w.(0);
  close "w1" (-1.0) w.(1);
  close "w2" 0.0 w.(2);
  (* α = 0.5: w1 = −0.5, w2 = −0.125 *)
  let h = Grunwald.weights ~alpha:0.5 4 in
  close "h1" (-0.5) h.(1);
  close "h2" (-0.125) h.(2)

let test_gl_weights_sum_to_zero () =
  (* Σ w_j → 0 as the series converges for 0 < α (binomial theorem at 1) *)
  let w = Grunwald.weights ~alpha:0.7 2000 in
  let s = Array.fold_left ( +. ) 0.0 w in
  check_bool "partial sums shrink" true (Float.abs s < 0.01)

let test_gl_alpha1_matches_backward_euler () =
  (* α = 1 GL is exactly backward Euler *)
  let wgl = Grunwald.solve ~h:0.01 ~alpha:1.0 ~t_end:2.0 rc [| step |] in
  let wbe = Stepper.solve ~scheme:Stepper.Backward_euler ~h:0.01 ~t_end:2.0 rc [| step |] in
  let ygl = Waveform.channel wgl 0 and ybe = Waveform.channel wbe 0 in
  close "identical" 0.0 (Vec.max_abs_diff ygl ybe) ~tol:1e-10

let test_gl_tracks_mittag_leffler () =
  let w = Grunwald.solve ~h:0.002 ~alpha:0.5 ~t_end:2.0 rc [| step |] in
  let exact = Special.ml_step_response ~alpha:0.5 ~lambda:1.0 in
  let y = Waveform.channel w 0 in
  let err = ref 0.0 in
  Array.iteri
    (fun i t -> if t > 0.05 then err := Float.max !err (Float.abs (y.(i) -. exact t)))
    w.Waveform.times;
  check_bool "tracks ML" true (!err < 5e-3)

(* ---------- adaptive trapezoidal ---------- *)

let test_adaptive_trap_accuracy () =
  let w, _ = Adaptive_trap.solve ~tol:1e-6 ~t_end:5.0 rc [| step |] in
  check_bool "tracks RC within tolerance band" true
    (max_err_of w (fun t -> 1.0 -. exp (-.t)) < 1e-4)

let test_adaptive_trap_grows_steps () =
  let _, stats = Adaptive_trap.solve ~tol:1e-4 ~h_init:1e-3 ~t_end:10.0 rc [| step |] in
  check_bool "few factorizations (dyadic cache)" true
    (stats.Adaptive_trap.factorizations < 20);
  check_bool "far fewer steps than uniform at h_init" true
    (stats.Adaptive_trap.accepted < 2000)

let test_adaptive_trap_covers_span () =
  let w, _ = Adaptive_trap.solve ~tol:1e-4 ~t_end:3.0 rc [| step |] in
  let times = w.Waveform.times in
  Alcotest.(check (float 1e-9)) "ends at t_end" 3.0 times.(Array.length times - 1)

(* ---------- exact LTI reference ---------- *)

let test_exact_lti_is_exact () =
  (* matches the analytic RC answer at machine precision even with a
     coarse step *)
  let w = Exact_lti.solve ~h:0.5 ~t_end:5.0 rc [| step |] in
  close "machine precision" 0.0 (max_err_of w (fun t -> 1.0 -. exp (-.t)))
    ~tol:1e-12

let test_exact_lti_oscillator () =
  (* undamped oscillator from x0: energy-exact at sample points *)
  let sys =
    Descriptor.of_dense ~e:(Mat.eye 2)
      ~a:(Mat.of_arrays [| [| 0.0; 1.0 |]; [| -4.0; 0.0 |] |])
      ~b:(Mat.zeros 2 1)
      ~c:(Mat.of_arrays [| [| 1.0; 0.0 |] |])
      ()
  in
  let w = Exact_lti.solve ~x0:[| 1.0; 0.0 |] ~h:0.1 ~t_end:10.0 sys [| Source.Dc 0.0 |] in
  close "cos(2t) exact" 0.0 (max_err_of w (fun t -> cos (2.0 *. t))) ~tol:1e-10

let test_exact_lti_rejects_dae () =
  let e = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let a = Mat.of_arrays [| [| -1.0; 0.0 |]; [| -2.0; 1.0 |] |] in
  let sys =
    Descriptor.of_dense ~e ~a ~b:(Mat.zeros 2 1) ~c:(Mat.eye 2) ()
  in
  check_bool "singular E raises" true
    (try
       ignore (Exact_lti.solve ~h:0.1 ~t_end:1.0 sys [| Source.Dc 0.0 |]);
       false
     with Lu.Singular _ -> true)

let test_opm_converges_to_exact_lti () =
  (* the convergence claim measured against a zero-error reference *)
  let sys = Descriptor.random_stable ~seed:77 ~n:6 ~p:1 ~q:1 () in
  let t_end = 2.0 in
  let reference = Exact_lti.solve ~h:(t_end /. 512.0) ~t_end sys [| step |] in
  let err m =
    let r = Opm.simulate_linear ~grid:(Grid.uniform ~t_end ~m) sys [| step |] in
    Error.waveform_error_db ~reference r.Sim_result.outputs
  in
  let e64 = err 64 and e512 = err 512 in
  check_bool "error decreases" true (e512 < e64 -. 20.0)

let test_gl_vs_opm_cross_check () =
  (* two completely different fractional discretisations must agree *)
  let sys = Descriptor.scalar ~e:1.0 ~a:(-2.0) ~b:2.0 in
  let t_end = 1.5 in
  let wgl = Grunwald.solve ~h:(t_end /. 3000.0) ~alpha:0.7 ~t_end sys [| step |] in
  let grid = Grid.uniform ~t_end ~m:3000 in
  let opm = Opm.simulate_fractional ~grid ~alpha:0.7 sys [| step |] in
  let err =
    Error.waveform_error_db ~reference:opm.Sim_result.outputs wgl
  in
  check_bool "agree within −40 dB" true (err < -40.0)

(* regression: the time loop used to rebuild [Csr.scale (−h^{−α}) E]
   every step — O(steps·nnz) wasted allocation. With a dense 60×60 E
   over 500 steps that alone would allocate ≥ 500·3600·8 ≈ 14 MB; with
   the matrix hoisted out of the loop the whole solve stays far below
   that. The solve itself allocates ~8 MB (mostly per-step sparse
   triangular solves), so the 12 MB bound passes with the hoist and the
   ≥ 22 MB pre-fix total fails it. (Allocation counts are deterministic
   on one domain, so this is a stable bound, not a timing test.) *)
let test_grunwald_hoisted_scale () =
  let n = 60 in
  let e = Mat.init n n (fun i j -> if i = j then 2.0 else 0.01) in
  let a = Mat.init n n (fun i j -> if i = j then -1.0 else 0.0) in
  let b = Mat.init n 1 (fun _ _ -> 1.0) in
  let c = Mat.init 1 n (fun _ j -> if j = 0 then 1.0 else 0.0) in
  let sys =
    Descriptor.make ~e:(Opm_sparse.Csr.of_dense e) ~a:(Opm_sparse.Csr.of_dense a)
      ~b ~c ()
  in
  let step = Source.Step { amplitude = 1.0; delay = 0.0 } in
  (* warm-up keeps one-time costs (factorisation fill-in) out of the
     measured window *)
  ignore (Grunwald.solve ~h:0.1 ~alpha:0.5 ~t_end:0.5 sys [| step |]);
  let before = Gc.allocated_bytes () in
  let w =
    Grunwald.solve ~h:0.002 ~alpha:0.5 ~t_end:1.0 sys [| step |]
  in
  let allocated = Gc.allocated_bytes () -. before in
  check_bool
    (Printf.sprintf "no per-step CSR rebuild (allocated %.1f MB)"
       (allocated /. 1e6))
    true
    (allocated < 12e6);
  (* and the response is still the monotone charging curve *)
  let y = Waveform.channel w 0 in
  check_bool "response still sane" true
    (y.(0) = 0.0 && y.(Array.length y - 1) > 0.0)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "transient"
    [
      ( "steppers",
        [
          t "all track RC" test_schemes_track_rc;
          t "backward Euler order 1" test_backward_euler_order_one;
          t "trapezoidal order 2" test_trapezoidal_order_two;
          t "gear order 2" test_gear_order_two;
          t "DAE handling" test_schemes_on_dae;
          t "stiff stability" test_stepper_stability_stiff;
          t "validation" test_stepper_validation;
        ] );
      ( "freq-domain",
        [
          t "α = 1 RC" test_fft_alpha1_rc;
          t "FFT-2 beats FFT-1" test_fft_sample_count_improves;
          t "non-pow2 sample count" test_fft_arbitrary_sample_count;
          t "validation" test_fft_validation;
        ] );
      ( "grunwald",
        [
          t "weights" test_gl_weights;
          t "weights telescope" test_gl_weights_sum_to_zero;
          t "α = 1 is backward Euler" test_gl_alpha1_matches_backward_euler;
          t "tracks Mittag-Leffler" test_gl_tracks_mittag_leffler;
          t "cross-check vs OPM" test_gl_vs_opm_cross_check;
          t "scaled matrix hoisted out of loop" test_grunwald_hoisted_scale;
        ] );
      ( "adaptive-trap",
        [
          t "accuracy" test_adaptive_trap_accuracy;
          t "dyadic step control" test_adaptive_trap_grows_steps;
          t "covers span" test_adaptive_trap_covers_span;
        ] );
      ( "exact-lti",
        [
          t "machine-precision RC" test_exact_lti_is_exact;
          t "undamped oscillator" test_exact_lti_oscillator;
          t "rejects DAE" test_exact_lti_rejects_dae;
          t "OPM converges to it" test_opm_converges_to_exact_lti;
        ] );
    ]
