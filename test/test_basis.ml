(* Tests for the basis layer: grids and operational matrices — the
   mathematical heart of the paper. *)

open Opm_numkit
open Opm_basis

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- Grid ---------- *)

let test_grid_uniform () =
  let g = Grid.uniform ~t_end:2.0 ~m:4 in
  check_int "size" 4 (Grid.size g);
  close "t_end" 2.0 (Grid.t_end g);
  let s = Grid.steps g in
  close "step" 0.5 s.(0);
  let b = Grid.boundaries g in
  close "b0" 0.0 b.(0);
  close "b4" 2.0 b.(4);
  let m = Grid.midpoints g in
  close "mid0" 0.25 m.(0);
  close "mid3" 1.75 m.(3)

let test_grid_adaptive () =
  let g = Grid.adaptive [| 0.1; 0.2; 0.7 |] in
  check_int "size" 3 (Grid.size g);
  close "t_end" 1.0 (Grid.t_end g);
  close "mid1" 0.2 (Grid.midpoints g).(1);
  check_bool "not uniform" false (Grid.is_uniform ~tol:1e-9 g)

let test_grid_validation () =
  check_bool "m = 0 rejected" true
    (try
       ignore (Grid.uniform ~t_end:1.0 ~m:0);
       false
     with Invalid_argument _ -> true);
  check_bool "negative step rejected" true
    (try
       ignore (Grid.adaptive [| 0.1; -0.2 |]);
       false
     with Invalid_argument _ -> true)

(* [t_end <= 0.0] and [h <= 0.0] are both false for NaN: a NaN or
   infinite horizon or step must still be refused *)
let test_grid_non_finite () =
  List.iter
    (fun v ->
      check_bool (Printf.sprintf "uniform t_end = %g rejected" v) true
        (try
           ignore (Grid.uniform ~t_end:v ~m:4);
           false
         with Invalid_argument _ -> true);
      check_bool (Printf.sprintf "adaptive step %g rejected" v) true
        (try
           ignore (Grid.adaptive [| 0.1; v |]);
           false
         with Invalid_argument _ -> true))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_grid_geometric () =
  let g = Grid.geometric ~t_end:1.0 ~m:5 ~ratio:1.5 in
  close "sums to t_end" 1.0 (Grid.t_end g) ~tol:1e-12;
  let s = Grid.steps g in
  close "ratio" 1.5 (s.(1) /. s.(0)) ~tol:1e-12

(* ---------- Block-pulse projection ---------- *)

let test_bpf_project_constant () =
  let g = Grid.uniform ~t_end:1.0 ~m:8 in
  let c = Block_pulse.project g (fun _ -> 3.0) in
  Array.iter (fun v -> close "constant coeff" 3.0 v ~tol:1e-12) c

let test_bpf_project_linear_exact_average () =
  let g = Grid.uniform ~t_end:1.0 ~m:4 in
  let c = Block_pulse.project g (fun t -> t) in
  (* interval averages of t: (i + 1/2)·h *)
  close "c0" 0.125 c.(0) ~tol:1e-10;
  close "c3" 0.875 c.(3) ~tol:1e-10

let test_bpf_project_source_matches_fn () =
  let g = Grid.adaptive [| 0.3; 0.1; 0.6 |] in
  let src = Opm_signal.Source.Sine { amplitude = 1.0; freq_hz = 0.7; phase = 0.1; offset = 0.2 } in
  let exact = Block_pulse.project_source g src in
  let numeric = Block_pulse.project g (Opm_signal.Source.eval src) in
  check_bool "closed form = quadrature" true (Vec.approx_equal ~tol:1e-7 exact numeric)

(* ---------- Operational matrices ---------- *)

let test_integral_matrix_paper_form () =
  (* eq. (4): H has h/2 on the diagonal, h above *)
  let g = Grid.uniform ~t_end:1.0 ~m:4 in
  let h = Block_pulse.integral_matrix g in
  close "diag" 0.125 (Mat.get h 0 0);
  close "upper" 0.25 (Mat.get h 0 2);
  close "lower zero" 0.0 (Mat.get h 2 0)

let test_differential_matrix_paper_form () =
  (* §III-A: D = (2/h)·[1, −2, 2, −2…] on the first row *)
  let g = Grid.uniform ~t_end:1.0 ~m:4 in
  let d = Block_pulse.differential_matrix g in
  let two_over_h = 8.0 in
  close "d00" two_over_h (Mat.get d 0 0);
  close "d01" (-2.0 *. two_over_h) (Mat.get d 0 1);
  close "d02" (2.0 *. two_over_h) (Mat.get d 0 2);
  close "d03" (-2.0 *. two_over_h) (Mat.get d 0 3)

let hd_identity name g =
  let h = Block_pulse.integral_matrix g in
  let d = Block_pulse.differential_matrix g in
  let m = Grid.size g in
  close (name ^ ": HD = I") 0.0 (Mat.max_abs_diff (Mat.mul h d) (Mat.eye m)) ~tol:1e-10;
  close (name ^ ": DH = I") 0.0 (Mat.max_abs_diff (Mat.mul d h) (Mat.eye m)) ~tol:1e-10

let test_hd_inverse_uniform () = hd_identity "uniform" (Grid.uniform ~t_end:2.7 ~m:9)

let test_hd_inverse_adaptive () =
  hd_identity "adaptive" (Grid.adaptive [| 0.2; 0.5; 0.1; 0.4; 0.3 |])

let test_integration_of_constant () =
  (* coefficients of ∫1 = t are Hᵀ·1 (integration acts as c ↦ Hᵀc) *)
  let g = Grid.uniform ~t_end:1.0 ~m:8 in
  let h = Block_pulse.integral_matrix g in
  let ones = Array.make 8 1.0 in
  let integrated = Mat.tmul_vec h ones in
  let mids = Grid.midpoints g in
  Array.iteri
    (fun i t -> close (Printf.sprintf "∫1 at %g" t) t integrated.(i) ~tol:1e-10)
    mids

let test_derivative_of_linear () =
  let g = Grid.uniform ~t_end:1.0 ~m:64 in
  let c = Block_pulse.project g (fun t -> t) in
  let d = Block_pulse.differential_matrix g in
  let dc = Mat.tmul_vec d c in
  (* away from the t = 0 boundary transient, d/dt t = 1 *)
  for i = 4 to 60 do
    close (Printf.sprintf "dc[%d]" i) 1.0 dc.(i) ~tol:1e-6
  done

(* ---------- Fractional operational matrices ---------- *)

let test_fractional_paper_example () =
  (* the paper's eq. (24): D^{3/2} for m = 4 *)
  let g = Grid.uniform ~t_end:4.0 ~m:4 (* h = 1 so (2/h)^{3/2} = 2^{3/2} *) in
  let d32 = Block_pulse.fractional_differential_matrix g 1.5 in
  let scale = 2.0 ** 1.5 in
  close "entry 00" scale (Mat.get d32 0 0) ~tol:1e-12;
  close "entry 01" (-3.0 *. scale) (Mat.get d32 0 1) ~tol:1e-12;
  close "entry 02" (4.5 *. scale) (Mat.get d32 0 2) ~tol:1e-12;
  close "entry 03" (-5.5 *. scale) (Mat.get d32 0 3) ~tol:1e-12;
  (* and the property stated under eq. (24): (D^{3/2})² = D³ *)
  let d = Block_pulse.differential_matrix g in
  close "(D^1.5)² = D³" 0.0
    (Mat.max_abs_diff (Mat.mul d32 d32) (Mat.pow d 3))
    ~tol:1e-9

let test_fractional_alpha_one_is_d () =
  let g = Grid.uniform ~t_end:1.0 ~m:6 in
  close "D^1 = D" 0.0
    (Mat.max_abs_diff
       (Block_pulse.fractional_differential_matrix g 1.0)
       (Block_pulse.differential_matrix g))
    ~tol:1e-9

let test_fractional_alpha_zero_is_identity () =
  let g = Grid.uniform ~t_end:1.0 ~m:5 in
  close "D^0 = I" 0.0
    (Mat.max_abs_diff (Block_pulse.fractional_differential_matrix g 0.0) (Mat.eye 5))

let test_fractional_half_squares_to_d () =
  List.iter
    (fun g ->
      let d12 = Block_pulse.fractional_differential_matrix g 0.5 in
      let d = Block_pulse.differential_matrix g in
      let scale = Mat.norm_inf d in
      check_bool "sqrt property" true
        (Mat.max_abs_diff (Mat.mul d12 d12) d < 1e-9 *. scale))
    [
      Grid.uniform ~t_end:1.0 ~m:8;
      Grid.geometric ~t_end:1.0 ~m:8 ~ratio:1.4;
      Grid.adaptive [| 0.5; 0.25; 0.125; 0.0625 |];
    ]

let prop_fractional_semigroup_uniform =
  QCheck.Test.make ~count:30 ~name:"uniform D^a · D^b = D^{a+b}"
    QCheck.(triple (int_range 2 16) (float_range 0.2 1.5) (float_range 0.2 1.5))
    (fun (m, a, b) ->
      let g = Grid.uniform ~t_end:1.0 ~m in
      let da = Block_pulse.fractional_differential_matrix g a in
      let db = Block_pulse.fractional_differential_matrix g b in
      let dab = Block_pulse.fractional_differential_matrix g (a +. b) in
      Mat.max_abs_diff (Mat.mul da db) dab
      < 1e-8 *. Float.max 1.0 (Mat.norm_inf dab))

let test_fractional_adaptive_confluent_raises () =
  (* two equal steps inside an otherwise adaptive grid: eq. (25)'s
     method needs distinct steps *)
  let g = Grid.adaptive [| 0.1; 0.3; 0.1; 0.5 |] in
  check_bool "raises Confluent_diagonal" true
    (try
       ignore (Block_pulse.fractional_differential_matrix g 0.5);
       false
     with Opm_numkit.Tri.Confluent_diagonal _ -> true)

let test_fractional_adaptive_uniform_dispatch () =
  (* an Adaptive grid with equal steps must match the Uniform result
     (series path), not raise *)
  let gu = Grid.uniform ~t_end:1.0 ~m:6 in
  let ga = Grid.adaptive (Array.make 6 (1.0 /. 6.0)) in
  close "same matrix" 0.0
    (Mat.max_abs_diff
       (Block_pulse.fractional_differential_matrix ga 0.5)
       (Block_pulse.fractional_differential_matrix gu 0.5))
    ~tol:1e-9

(* the Riemann–Liouville integral H^α is the triangular inverse of D^α *)
let test_fractional_integral_inverse () =
  let g = Grid.uniform ~t_end:2.0 ~m:10 in
  let d = Block_pulse.fractional_differential_matrix g 0.7 in
  let h = Tri.invert_upper d in
  close "H^α D^α = I" 0.0 (Mat.max_abs_diff (Mat.mul h d) (Mat.eye 10)) ~tol:1e-8

let test_fractional_halfderivative_of_t () =
  (* d^{1/2}/dt^{1/2} t = 2√(t/π) *)
  let g = Grid.uniform ~t_end:1.0 ~m:256 in
  let c = Block_pulse.project g (fun t -> t) in
  let d12 = Block_pulse.fractional_differential_matrix g 0.5 in
  let dc = Mat.tmul_vec d12 c in
  let mids = Grid.midpoints g in
  for i = 10 to 250 do
    let exact = 2.0 *. sqrt (mids.(i) /. Float.pi) in
    check_bool "pointwise" true (Float.abs (dc.(i) -. exact) < 2e-3)
  done

let test_fractional_integral_of_one () =
  (* I^{1/2} 1 = 2√(t/π) as well (Riemann–Liouville) *)
  let g = Grid.uniform ~t_end:1.0 ~m:256 in
  let h12 = Tri.invert_upper (Block_pulse.fractional_differential_matrix g 0.5) in
  let ones = Array.make 256 1.0 in
  let ic = Mat.tmul_vec h12 ones in
  let mids = Grid.midpoints g in
  for i = 10 to 250 do
    let exact = 2.0 *. sqrt (mids.(i) /. Float.pi) in
    check_bool "pointwise" true (Float.abs (ic.(i) -. exact) < 2e-3)
  done

let test_adaptive_matrix_closed_form () =
  (* spot-check the closed-form D̃ against direct inversion of H̃ *)
  let g = Grid.adaptive [| 0.15; 0.35; 0.05; 0.45 |] in
  let d = Block_pulse.differential_matrix g in
  let h = Block_pulse.integral_matrix g in
  let d_ref = Opm_numkit.Tri.invert_upper h in
  close "closed form = H⁻¹" 0.0 (Mat.max_abs_diff d d_ref) ~tol:1e-9

(* ---------- Walsh ---------- *)

let test_walsh_hadamard_orthogonal () =
  let h = Walsh.hadamard 8 in
  close "H·Hᵀ = 8I" 0.0
    (Mat.max_abs_diff (Mat.mul h (Mat.transpose h)) (Mat.scale 8.0 (Mat.eye 8)))

let test_walsh_sequency_order () =
  let w = Walsh.walsh_matrix 8 in
  (* sequency (sign-change count) must be nondecreasing down the rows *)
  let rec check i =
    if i >= 7 then ()
    else begin
      check_bool "ordered" true
        (Walsh.sequency_of_row w i <= Walsh.sequency_of_row w (i + 1));
      check (i + 1)
    end
  in
  check 0;
  Alcotest.(check int) "row 0 constant" 0 (Walsh.sequency_of_row w 0);
  Alcotest.(check int) "last row alternates" 7 (Walsh.sequency_of_row w 7)

let test_walsh_fwht_matches_matrix () =
  let st = Random.State.make [| 5 |] in
  let x = Array.init 16 (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let h = Walsh.hadamard 16 in
  check_bool "fwht = H·x" true
    (Vec.approx_equal ~tol:1e-10 (Mat.mul_vec h x) (Walsh.fwht x))

let test_walsh_roundtrip () =
  let st = Random.State.make [| 6 |] in
  let x = Array.init 32 (fun _ -> Random.State.float st 2.0 -. 1.0) in
  check_bool "to ∘ from = id" true
    (Vec.approx_equal ~tol:1e-10 x (Walsh.walsh_to_bpf (Walsh.bpf_to_walsh x)))

let test_walsh_operational_consistency () =
  (* D_W inverts the Walsh image H_W = W·H_B·Wᵀ/m of the BPF integral *)
  let g = Grid.uniform ~t_end:1.0 ~m:8 in
  let w = Walsh.walsh_matrix 8 in
  let hw =
    Mat.scale (1.0 /. 8.0)
      (Mat.mul (Mat.mul w (Block_pulse.integral_matrix g)) (Mat.transpose w))
  in
  let dw = Walsh.differential_matrix g in
  close "H_W · D_W = I" 0.0 (Mat.max_abs_diff (Mat.mul hw dw) (Mat.eye 8)) ~tol:1e-9

let test_walsh_requires_pow2 () =
  check_bool "m = 6 rejected" true
    (try
       ignore (Walsh.walsh_matrix 6);
       false
     with Invalid_argument _ -> true)

let test_walsh_truncate () =
  let x = [| 1.0; 2.0; 3.0; 4.0 |] in
  let t = Walsh.truncate_spectrum ~keep:2 x in
  close "kept" 2.0 t.(1);
  close "zeroed" 0.0 t.(2)

(* ---------- Haar ---------- *)

let test_haar_rows_orthogonal () =
  let m = 16 in
  let t = Haar.haar_matrix m in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      close
        (Printf.sprintf "⟨row %d, row %d⟩" i j)
        0.0
        (Vec.dot (Mat.row t i) (Mat.row t j))
        ~tol:1e-12
    done
  done

let test_haar_roundtrip () =
  let st = Random.State.make [| 8 |] in
  let x = Array.init 32 (fun _ -> Random.State.float st 2.0 -. 1.0) in
  check_bool "inverse ∘ forward = id" true
    (Vec.approx_equal ~tol:1e-10 x (Haar.inverse_transform (Haar.transform x)))

let test_haar_operational_consistency () =
  let g = Grid.uniform ~t_end:2.0 ~m:16 in
  let hh = Haar.integral_matrix g in
  let dh = Haar.differential_matrix g in
  close "H_H · D_H = I" 0.0 (Mat.max_abs_diff (Mat.mul hh dh) (Mat.eye 16)) ~tol:1e-8

let test_haar_constant_coefficient () =
  (* a constant signal has only the scaling coefficient *)
  let x = Array.make 8 2.5 in
  let c = Haar.transform x in
  close "scaling coeff" 2.5 c.(0) ~tol:1e-12;
  for i = 1 to 7 do
    close (Printf.sprintf "wavelet %d" i) 0.0 c.(i) ~tol:1e-12
  done

(* ---------- Legendre: Jacobi–Gauss at a = b = 0 ---------- *)

(* The spectral basis's default node set is Legendre–Gauss; the anchored
   collocation matrix inverts to ∫₀ᵗ, exact on polynomials of degree
   below m *)
let legendre_integrate ~m f =
  let c = Jacobi.collocation ~t_end:1.0 ~m in
  let d = Jacobi.diff_matrix c in
  (* the anchored block: rows and columns of the m collocation nodes *)
  let anchored = Mat.init m m (fun i j -> Mat.get d (i + 1) (j + 1)) in
  (c.Jacobi.nodes, Lu.solve_dense anchored (Array.map f c.Jacobi.nodes))

let test_legendre_integral_row0 () =
  (* ∫₀ᵗ SL₀ = t *)
  let nodes, z = legendre_integrate ~m:4 (fun _ -> 1.0) in
  Array.iteri (fun i t -> close (Printf.sprintf "∫SL₀ at %g" t) t z.(i) ~tol:1e-12) nodes

let test_legendre_integration_action () =
  (* ∫₀ᵗ SL₁ = ∫₀ᵗ (2τ−1) dτ = t² − t *)
  let nodes, z = legendre_integrate ~m:5 (fun t -> (2.0 *. t) -. 1.0) in
  Array.iteri
    (fun i t -> close (Printf.sprintf "∫SL₁ at %g" t) ((t *. t) -. t) z.(i) ~tol:1e-12)
    nodes

let legendre n x = Jacobi.jacobi_eval ~a:0.0 ~b:0.0 ~deg:n x

let test_legendre_values () =
  (* P_n(1) = 1 for all n *)
  List.iter
    (fun n -> close (Printf.sprintf "P_%d(1)" n) 1.0 (legendre n 1.0) ~tol:1e-12)
    [ 0; 1; 2; 3; 4; 5 ];
  (* P_2(x) = (3x² − 1)/2 *)
  close "P2(0)" (-0.5) (legendre 2 0.0) ~tol:1e-12

let test_legendre_gauss_orthogonality () =
  (* 6 Gauss–Legendre nodes integrate degree ≤ 11 exactly *)
  let x, w = Jacobi.gauss ~m:6 () in
  let inner f g =
    let s = ref 0.0 in
    Array.iteri (fun i xi -> s := !s +. (w.(i) *. f xi *. g xi)) x;
    !s
  in
  close "⟨P3,P5⟩ = 0" 0.0 (inner (legendre 3) (legendre 5)) ~tol:1e-12;
  (* ‖P_n‖² = 2/(2n+1) *)
  close "‖P3‖²" (2.0 /. 7.0) (inner (legendre 3) (legendre 3)) ~tol:1e-12

let test_shifted_legendre () =
  (* SL_n(t) = P_n(2t − 1): SL_n(1) = 1, orthogonal on [0, 1] *)
  let sl n t = legendre n ((2.0 *. t) -. 1.0) in
  close "SL4(1)" 1.0 (sl 4 1.0) ~tol:1e-12;
  let c = Jacobi.collocation ~t_end:1.0 ~m:6 in
  let s = ref 0.0 in
  Array.iteri (fun i t -> s := !s +. (c.Jacobi.qw.(i) *. sl 2 t *. sl 4 t)) c.Jacobi.nodes;
  close "⟨SL2,SL4⟩" 0.0 !s ~tol:1e-12

let () =
  let t name f = Alcotest.test_case name `Quick f in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "basis"
    [
      ( "grid",
        [
          t "uniform" test_grid_uniform;
          t "adaptive" test_grid_adaptive;
          t "validation" test_grid_validation;
          t "non-finite rejected" test_grid_non_finite;
          t "geometric" test_grid_geometric;
        ] );
      ( "block-pulse",
        [
          t "project constant" test_bpf_project_constant;
          t "project linear" test_bpf_project_linear_exact_average;
          t "project source = quadrature" test_bpf_project_source_matches_fn;
        ] );
      ( "operational",
        [
          t "H paper form" test_integral_matrix_paper_form;
          t "D paper form" test_differential_matrix_paper_form;
          t "HD = I uniform" test_hd_inverse_uniform;
          t "HD = I adaptive" test_hd_inverse_adaptive;
          t "∫ constant" test_integration_of_constant;
          t "d/dt linear" test_derivative_of_linear;
          t "adaptive closed form" test_adaptive_matrix_closed_form;
        ] );
      ( "fractional",
        [
          t "paper eq. (24)" test_fractional_paper_example;
          t "α = 1 reduces to D" test_fractional_alpha_one_is_d;
          t "α = 0 is identity" test_fractional_alpha_zero_is_identity;
          t "(D^½)² = D on three grids" test_fractional_half_squares_to_d;
          t "confluent adaptive raises" test_fractional_adaptive_confluent_raises;
          t "equal-step adaptive dispatch" test_fractional_adaptive_uniform_dispatch;
          t "fractional integral inverse" test_fractional_integral_inverse;
          t "d^½ t = 2√(t/π)" test_fractional_halfderivative_of_t;
          t "I^½ 1 = 2√(t/π)" test_fractional_integral_of_one;
          q prop_fractional_semigroup_uniform;
        ] );
      ( "walsh",
        [
          t "hadamard orthogonal" test_walsh_hadamard_orthogonal;
          t "sequency ordering" test_walsh_sequency_order;
          t "fwht = matrix" test_walsh_fwht_matches_matrix;
          t "roundtrip" test_walsh_roundtrip;
          t "operational consistency" test_walsh_operational_consistency;
          t "pow2 required" test_walsh_requires_pow2;
          t "spectrum truncation" test_walsh_truncate;
        ] );
      ( "haar",
        [
          t "rows orthogonal" test_haar_rows_orthogonal;
          t "roundtrip" test_haar_roundtrip;
          t "operational consistency" test_haar_operational_consistency;
          t "constant signal" test_haar_constant_coefficient;
        ] );
      ( "legendre",
        [
          t "integral row 0" test_legendre_integral_row0;
          t "integration action" test_legendre_integration_action;
          t "P_n values" test_legendre_values;
          t "Gauss orthogonality" test_legendre_gauss_orthogonality;
          t "shifted on [0, 1]" test_shifted_legendre;
        ] );
    ]
