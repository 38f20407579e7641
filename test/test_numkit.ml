(* Unit and property tests for the numerical substrate. *)

open Opm_numkit

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)

(* ---------- Vec ---------- *)

let test_vec_basics () =
  let v = Vec.of_list [ 1.0; 2.0; 3.0 ] in
  close "dot" 14.0 (Vec.dot v v);
  close "norm2" (sqrt 14.0) (Vec.norm2 v);
  close "norm_inf" 3.0 (Vec.norm_inf v);
  let w = Vec.scale 2.0 v in
  close "scale" 6.0 w.(2);
  close "dist2" (Vec.norm2 v) (Vec.dist2 w v)

let test_vec_axpy () =
  let x = Vec.of_list [ 1.0; -1.0 ] in
  let y = Vec.of_list [ 10.0; 10.0 ] in
  Vec.axpy 3.0 x y;
  close "axpy 0" 13.0 y.(0);
  close "axpy 1" 7.0 y.(1)

let test_vec_linspace () =
  let v = Vec.linspace 0.0 1.0 5 in
  Alcotest.(check int) "length" 5 (Vec.dim v);
  close "first" 0.0 v.(0);
  close "mid" 0.5 v.(2);
  close "last" 1.0 v.(4)

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

(* ---------- Mat ---------- *)

let test_mat_mul_identity () =
  let a = Mat.init 4 4 (fun i j -> float_of_int ((3 * i) + j)) in
  check_bool "A·I = A" true (Mat.approx_equal (Mat.mul a (Mat.eye 4)) a);
  check_bool "I·A = A" true (Mat.approx_equal (Mat.mul (Mat.eye 4) a) a)

let test_mat_mul_known () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Mat.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Mat.mul a b in
  close "c00" 19.0 (Mat.get c 0 0);
  close "c01" 22.0 (Mat.get c 0 1);
  close "c10" 43.0 (Mat.get c 1 0);
  close "c11" 50.0 (Mat.get c 1 1)

let test_mat_transpose () =
  let a = Mat.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
  let t = Mat.transpose a in
  Alcotest.(check (pair int int)) "dims" (3, 2) (Mat.dims t);
  close "entry" (Mat.get a 1 2) (Mat.get t 2 1)

let test_mat_kron_dims () =
  let a = Mat.init 2 3 (fun i j -> float_of_int (i + j)) in
  let b = Mat.init 4 5 (fun i j -> float_of_int (i * j)) in
  Alcotest.(check (pair int int)) "kron dims" (8, 15) (Mat.dims (Mat.kron a b))

let test_mat_kron_mixed_product () =
  (* (A⊗B)(C⊗D) = (AC)⊗(BD) *)
  let mk seed n = Mat.init n n (fun i j -> sin (float_of_int ((seed * i) + j))) in
  let a = mk 3 2 and b = mk 5 3 and c = mk 7 2 and d = mk 11 3 in
  let lhs = Mat.mul (Mat.kron a b) (Mat.kron c d) in
  let rhs = Mat.kron (Mat.mul a c) (Mat.mul b d) in
  check_bool "mixed product" true (Mat.approx_equal ~tol:1e-12 lhs rhs)

let test_mat_pow () =
  let q = Mat.shift_nilpotent 4 in
  check_bool "Q^4 = 0" true (Mat.approx_equal (Mat.pow q 4) (Mat.zeros 4 4));
  check_bool "Q^0 = I" true (Mat.approx_equal (Mat.pow q 0) (Mat.eye 4));
  close "Q^2 entry" 1.0 (Mat.get (Mat.pow q 2) 0 2);
  close "Q^2 other" 0.0 (Mat.get (Mat.pow q 2) 0 1)

let test_mat_tmul_vec () =
  let a = Mat.init 3 4 (fun i j -> float_of_int ((i * 4) + j)) in
  let x = [| 1.0; -2.0; 3.0 |] in
  let expected = Mat.mul_vec (Mat.transpose a) x in
  check_bool "tmul = transpose mul" true
    (Vec.approx_equal expected (Mat.tmul_vec a x))

let test_mat_triangular_pred () =
  let u = Mat.init 3 3 (fun i j -> if j >= i then 1.0 else 0.0) in
  check_bool "upper" true (Mat.is_upper_triangular u);
  Mat.set u 2 0 0.5;
  check_bool "not upper" false (Mat.is_upper_triangular u)

(* ---------- Lu ---------- *)

let test_lu_solve_known () =
  let a = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Lu.solve_dense a [| 5.0; 10.0 |] in
  close "x0" 1.0 x.(0);
  close "x1" 3.0 x.(1)

let test_lu_det () =
  let a = Mat.of_arrays [| [| 2.0; 0.0 |]; [| 0.0; 3.0 |] |] in
  close "diag det" 6.0 (Lu.det (Lu.factor a));
  (* swap rows: determinant flips sign *)
  let b = Mat.of_arrays [| [| 0.0; 3.0 |]; [| 2.0; 0.0 |] |] in
  close "swap det" (-6.0) (Lu.det (Lu.factor b))

let test_lu_inverse () =
  let a =
    Mat.init 5 5 (fun i j ->
        if i = j then 3.0 else 1.0 /. float_of_int (1 + i + j))
  in
  let ai = Lu.inverse a in
  check_bool "A·A⁻¹ = I" true
    (Mat.approx_equal ~tol:1e-12 (Mat.mul a ai) (Mat.eye 5))

let test_lu_singular () =
  let a = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  check_bool "raises Singular" true
    (try
       ignore (Lu.factor a);
       false
     with Lu.Singular _ -> true)

let test_lu_needs_pivoting () =
  (* zero top-left pivot forces a row swap *)
  let a = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Lu.solve_dense a [| 2.0; 3.0 |] in
  close "x0" 3.0 x.(0);
  close "x1" 2.0 x.(1)

let prop_lu_residual =
  QCheck.Test.make ~count:50 ~name:"lu: random systems solve to tiny residual"
    QCheck.(pair (int_range 1 12) (int_range 0 10000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let a =
        Mat.init n n (fun i j ->
            (if i = j then float_of_int n else 0.0)
            +. Random.State.float st 2.0 -. 1.0)
      in
      let b = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let x = Lu.solve_dense a b in
      let r = Vec.sub (Mat.mul_vec a x) b in
      Vec.norm2 r < 1e-8)

(* factor_profile skips only exact-zero row tails, so on a matrix with
   ragged row ends and weak diagonal (forcing swaps that move the ends)
   it must reproduce factor's solution and determinant exactly *)
let prop_lu_profile_matches_dense =
  QCheck.Test.make ~count:50 ~name:"lu: profile factor equals dense factor"
    QCheck.(pair (int_range 1 16) (int_range 0 10000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let ends = Array.init n (fun i -> min (n - 1) (i + Random.State.int st 4)) in
      let a =
        Mat.init n n (fun i j ->
            if j > ends.(i) || Random.State.int st 4 = 0 then 0.0
            else Random.State.float st 2.0 -. 1.0)
      in
      let b = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      match Lu.factor a with
      | exception Lu.Singular k -> (
          match Lu.factor_profile a with
          | exception Lu.Singular k' -> k = k'
          | _ -> false)
      | dense ->
          let profile = Lu.factor_profile a in
          Lu.solve dense b = Lu.solve profile b
          && Lu.det dense = Lu.det profile)

(* ---------- Tri ---------- *)

let upper_of seed n =
  let st = Random.State.make [| seed |] in
  Mat.init n n (fun i j ->
      if j < i then 0.0
      else if j = i then 1.0 +. Random.State.float st 3.0
      else Random.State.float st 2.0 -. 1.0)

let test_tri_solve_upper () =
  let u = upper_of 1 6 in
  let b = Array.init 6 (fun i -> float_of_int (i + 1)) in
  let x = Tri.solve_upper u b in
  check_bool "residual" true (Vec.approx_equal ~tol:1e-10 (Mat.mul_vec u x) b)

let test_tri_solve_lower () =
  let l = Mat.transpose (upper_of 2 6) in
  let b = Array.init 6 (fun i -> cos (float_of_int i)) in
  let x = Tri.solve_lower l b in
  check_bool "residual" true (Vec.approx_equal ~tol:1e-10 (Mat.mul_vec l x) b)

let test_tri_invert_upper () =
  let u = upper_of 3 8 in
  let inv = Tri.invert_upper u in
  check_bool "U·U⁻¹ = I" true
    (Mat.approx_equal ~tol:1e-10 (Mat.mul u inv) (Mat.eye 8));
  check_bool "inverse upper" true (Mat.is_upper_triangular ~tol:1e-14 inv)

let test_tri_singular_exn () =
  let u = Mat.zeros 3 3 in
  check_bool "raises" true
    (try
       ignore (Tri.solve_upper u [| 1.0; 1.0; 1.0 |]);
       false
     with Tri.Singular _ -> true)

let distinct_diag_upper seed n =
  let st = Random.State.make [| seed |] in
  Mat.init n n (fun i j ->
      if j < i then 0.0
      else if j = i then 1.0 +. float_of_int i +. Random.State.float st 0.5
      else Random.State.float st 2.0 -. 1.0)

let test_parlett_square () =
  let t = distinct_diag_upper 4 7 in
  let s = Tri.parlett sqrt t in
  check_bool "sqrt(T)² = T" true (Mat.approx_equal ~tol:1e-9 (Mat.mul s s) t)

let test_parlett_identity_function () =
  let t = distinct_diag_upper 5 6 in
  check_bool "f = id" true (Mat.approx_equal ~tol:1e-12 (Tri.parlett Fun.id t) t)

let test_parlett_exp_commutes () =
  (* f(T) commutes with T for any matrix function *)
  let t = distinct_diag_upper 6 6 in
  let f = Tri.parlett exp t in
  check_bool "T·f(T) = f(T)·T" true
    (Mat.approx_equal ~tol:1e-8 (Mat.mul t f) (Mat.mul f t))

let test_parlett_confluent () =
  let t = Mat.of_arrays [| [| 2.0; 1.0 |]; [| 0.0; 2.0 |] |] in
  check_bool "raises Confluent_diagonal" true
    (try
       ignore (Tri.parlett sqrt t);
       false
     with Tri.Confluent_diagonal _ -> true)

let prop_parlett_power_addition =
  QCheck.Test.make ~count:30
    ~name:"parlett: T^a · T^b = T^{a+b} for triangular distinct-diag T"
    QCheck.(triple (int_range 2 8) (float_range 0.1 1.4) (float_range 0.1 1.4))
    (fun (n, a, b) ->
      let t = distinct_diag_upper (n + 17) n in
      let ta = Tri.fractional_power t a in
      let tb = Tri.fractional_power t b in
      let tab = Tri.fractional_power t (a +. b) in
      Mat.max_abs_diff (Mat.mul ta tb) tab < (1e-6 *. Mat.norm_inf tab) +. 1e-8)

(* ---------- Eig ---------- *)

let sort_complex e =
  let l = Array.to_list e in
  List.sort
    (fun a b ->
      let c = compare a.Complex.re b.Complex.re in
      if c <> 0 then c else compare a.Complex.im b.Complex.im)
    l

let test_eig_diagonal () =
  let e = sort_complex (Eig.eigenvalues (Mat.diag [| 3.0; -1.0; 7.0 |])) in
  match e with
  | [ a; b; c ] ->
      close "λ1" (-1.0) a.Complex.re;
      close "λ2" 3.0 b.Complex.re;
      close "λ3" 7.0 c.Complex.re;
      List.iter (fun z -> close "real" 0.0 z.Complex.im) e
  | _ -> Alcotest.fail "expected 3 eigenvalues"

let test_eig_rotation () =
  (* [[0,−1],[1,0]] has eigenvalues ±i *)
  let r = Mat.of_arrays [| [| 0.0; -1.0 |]; [| 1.0; 0.0 |] |] in
  match sort_complex (Eig.eigenvalues r) with
  | [ a; b ] ->
      close "−i" (-1.0) a.Complex.im ~tol:1e-12;
      close "+i" 1.0 b.Complex.im ~tol:1e-12;
      close "re 0" 0.0 a.Complex.re ~tol:1e-12
  | _ -> Alcotest.fail "expected 2 eigenvalues"

let test_eig_companion_roots () =
  (* companion of (x−1)(x−2)(x−3)(x+0.5) *)
  let coeffs = [| -3.0; -0.5; 8.0; -5.5 |] in
  let comp =
    Mat.init 4 4 (fun i j ->
        if j = 3 then -.coeffs.(i) else if i = j + 1 then 1.0 else 0.0)
  in
  match sort_complex (Eig.eigenvalues comp) with
  | [ a; b; c; d ] ->
      close "−0.5" (-0.5) a.Complex.re ~tol:1e-9;
      close "1" 1.0 b.Complex.re ~tol:1e-9;
      close "2" 2.0 c.Complex.re ~tol:1e-9;
      close "3" 3.0 d.Complex.re ~tol:1e-9
  | _ -> Alcotest.fail "expected 4 roots"

let test_eig_hessenberg_form () =
  let st = Random.State.make [| 12 |] in
  let a = Mat.init 8 8 (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let h = Eig.hessenberg a in
  let ok = ref true in
  for i = 2 to 7 do
    for j = 0 to i - 2 do
      if Mat.get h i j <> 0.0 then ok := false
    done
  done;
  check_bool "hessenberg pattern" true !ok;
  (* similarity preserves the trace *)
  let tr m =
    let s = ref 0.0 in
    for i = 0 to 7 do
      s := !s +. Mat.get m i i
    done;
    !s
  in
  close "trace preserved" (tr a) (tr h) ~tol:1e-10

let prop_eig_trace_det =
  QCheck.Test.make ~count:25
    ~name:"eig: Σλ = trace and Πλ = det on random matrices"
    QCheck.(pair (int_range 2 12) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let a =
        Mat.init n n (fun i j ->
            (if i = j then 3.0 else 0.0) +. Random.State.float st 2.0 -. 1.0)
      in
      let e = Eig.eigenvalues a in
      let tr = ref 0.0 in
      for i = 0 to n - 1 do
        tr := !tr +. Mat.get a i i
      done;
      let sum = Array.fold_left (fun acc z -> acc +. z.Complex.re) 0.0 e in
      let prod = Array.fold_left Complex.mul Complex.one e in
      let det = Lu.det (Lu.factor a) in
      Float.abs (sum -. !tr) < 1e-7 *. Float.max 1.0 (Float.abs !tr)
      && Float.abs (prod.Complex.re -. det) < 1e-6 *. Float.max 1.0 (Float.abs det)
      && Float.abs prod.Complex.im < 1e-6 *. Float.max 1.0 (Float.abs det))

let test_spectral_abscissa () =
  let a = Mat.of_arrays [| [| -2.0; 1.0 |]; [| 0.0; -5.0 |] |] in
  close "max Re" (-2.0) (Eig.spectral_abscissa a) ~tol:1e-10

(* ---------- Expm ---------- *)

let test_expm_rotation () =
  (* exp of a rotation generator is the rotation matrix *)
  let a = Mat.of_arrays [| [| 0.0; 1.0 |]; [| -1.0; 0.0 |] |] in
  let e = Expm.expm a in
  close "cos" (cos 1.0) (Mat.get e 0 0) ~tol:1e-13;
  close "sin" (sin 1.0) (Mat.get e 0 1) ~tol:1e-13

let test_expm_scaling_branch () =
  (* large norm exercises the squaring phase *)
  let e = Expm.expm (Mat.scale 30.0 (Mat.eye 2)) in
  close "e^30" (exp 30.0) (Mat.get e 0 0) ~tol:(1e-9 *. exp 30.0)

let test_expm_zero () =
  check_bool "e^0 = I" true
    (Mat.approx_equal ~tol:1e-14 (Expm.expm (Mat.zeros 3 3)) (Mat.eye 3))

let prop_expm_inverse =
  QCheck.Test.make ~count:25 ~name:"expm: e^A · e^{−A} = I"
    QCheck.(pair (int_range 1 8) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed |] in
      let a = Mat.init n n (fun _ _ -> Random.State.float st 4.0 -. 2.0) in
      let prod = Mat.mul (Expm.expm a) (Expm.expm (Mat.scale (-1.0) a)) in
      Mat.max_abs_diff prod (Mat.eye n) < 1e-9)

let prop_expm_trace_det =
  QCheck.Test.make ~count:25 ~name:"expm: det e^A = e^{tr A}"
    QCheck.(pair (int_range 1 7) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed + 5 |] in
      let a = Mat.init n n (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
      let tr = ref 0.0 in
      for i = 0 to n - 1 do
        tr := !tr +. Mat.get a i i
      done;
      let det = Lu.det (Lu.factor (Expm.expm a)) in
      Float.abs (det -. exp !tr) < 1e-9 *. Float.max 1.0 (exp !tr))

let test_phi1_values () =
  close "phi1 scalar" ((exp 2.0 -. 1.0) /. 2.0)
    (Mat.get (Expm.phi1 (Mat.of_arrays [| [| 2.0 |] |])) 0 0)
    ~tol:1e-12;
  close "phi1 of 0" 1.0 (Mat.get (Expm.phi1 (Mat.zeros 1 1)) 0 0) ~tol:1e-13;
  (* identity A·φ₁(A) = e^A − I, including for singular A *)
  let a = Mat.of_arrays [| [| 0.0; 1.0 |]; [| 0.0; 0.0 |] |] in
  let lhs = Mat.mul a (Expm.phi1 a) in
  let rhs = Mat.sub (Expm.expm a) (Mat.eye 2) in
  check_bool "A·φ₁(A) = e^A − I (nilpotent A)" true
    (Mat.approx_equal ~tol:1e-13 lhs rhs)

(* ---------- Cmat ---------- *)

let ccomplex re im = { Complex.re; im }

let test_cmat_solve () =
  let a =
    Cmat.init 3 3 (fun i j ->
        if i = j then ccomplex 3.0 1.0 else ccomplex 0.3 (-0.2))
  in
  let b = Array.init 3 (fun i -> ccomplex (float_of_int i) 1.0) in
  let x = Cmat.solve a b in
  let r = Cmat.mul_vec a x in
  let err = ref 0.0 in
  Array.iteri
    (fun i v -> err := Float.max !err (Complex.norm (Complex.sub v b.(i))))
    r;
  close "residual" 0.0 !err ~tol:1e-12

let test_cmat_factor_reuse () =
  let a =
    Cmat.init 2 2 (fun i j -> ccomplex (float_of_int ((2 * i) + j + 1)) 0.5)
  in
  let f = Cmat.factor a in
  let b1 = [| Complex.one; Complex.zero |] in
  let b2 = [| Complex.zero; Complex.one |] in
  let x1 = Cmat.solve_factored f b1 and x2 = Cmat.solve_factored f b2 in
  let y1 = Cmat.solve a b1 and y2 = Cmat.solve a b2 in
  let d a b =
    Array.fold_left Float.max 0.0
      (Array.mapi (fun i v -> Complex.norm (Complex.sub v b.(i))) a)
  in
  close "reuse 1" 0.0 (d x1 y1) ~tol:1e-14;
  close "reuse 2" 0.0 (d x2 y2) ~tol:1e-14

let test_jomega_alpha () =
  (* (jω)^1 = jω *)
  let v = Cmat.jomega_alpha 2.0 1.0 in
  close "re" 0.0 v.Complex.re ~tol:1e-12;
  close "im" 2.0 v.Complex.im ~tol:1e-12;
  (* (jω)^{1/2} at ω = 1: e^{iπ/4} *)
  let h = Cmat.jomega_alpha 1.0 0.5 in
  close "re half" (cos (Float.pi /. 4.0)) h.Complex.re ~tol:1e-12;
  close "im half" (sin (Float.pi /. 4.0)) h.Complex.im ~tol:1e-12;
  (* negative ω conjugates *)
  let hm = Cmat.jomega_alpha (-1.0) 0.5 in
  close "conj" (-.h.Complex.im) hm.Complex.im ~tol:1e-12

(* ---------- Fft ---------- *)

let random_signal seed n =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ ->
      ccomplex (Random.State.float st 2.0 -. 1.0) (Random.State.float st 2.0 -. 1.0))

let spectral_diff a b =
  Array.fold_left Float.max 0.0
    (Array.mapi (fun i v -> Complex.norm (Complex.sub v b.(i))) a)

let test_fft_matches_naive_pow2 () =
  let x = random_signal 1 32 in
  close "radix-2 vs naive" 0.0
    (spectral_diff (Fft.fft x) (Fft.dft_naive x))
    ~tol:1e-10

let test_fft_matches_naive_arbitrary () =
  List.iter
    (fun n ->
      let x = random_signal n n in
      close
        (Printf.sprintf "bluestein n=%d" n)
        0.0
        (spectral_diff (Fft.fft x) (Fft.dft_naive x))
        ~tol:1e-9)
    [ 3; 7; 12; 100; 101 ]

let test_fft_roundtrip () =
  List.iter
    (fun n ->
      let x = random_signal (n + 5) n in
      close
        (Printf.sprintf "ifft∘fft n=%d" n)
        0.0
        (spectral_diff (Fft.ifft (Fft.fft x)) x)
        ~tol:1e-10)
    [ 8; 50; 64; 100 ]

let test_fft_dc () =
  let x = Array.make 16 Complex.one in
  let y = Fft.fft x in
  close "DC bin" 16.0 y.(0).Complex.re;
  close "bin 1" 0.0 (Complex.norm y.(1)) ~tol:1e-12

let test_fft_parseval () =
  let x = random_signal 9 64 in
  let y = Fft.fft x in
  let energy v = Array.fold_left (fun acc c -> acc +. Complex.norm2 c) 0.0 v in
  close "parseval" (64.0 *. energy x) (energy y) ~tol:1e-6

let test_fft_frequencies () =
  let f = Fft.frequencies 8 0.5 in
  close "bin 0" 0.0 f.(0);
  close "bin 1" (2.0 *. Float.pi /. 4.0) f.(1) ~tol:1e-12;
  check_bool "upper bins negative" true (f.(7) < 0.0);
  close "symmetry" (-.f.(1)) f.(7) ~tol:1e-12

(* ---------- Series ---------- *)

let test_series_binomial_integer () =
  (* (1+q)^3 = 1 + 3q + 3q² + q³, and exact zeros past the degree *)
  let c = Series.binomial_product 0.0 3.0 6 in
  close "c0" 1.0 c.(0);
  close "c1" 3.0 c.(1);
  close "c2" 3.0 c.(2);
  close "c3" 1.0 c.(3);
  close "c4" 0.0 c.(4)

let test_series_paper_rho () =
  (* the paper's eq. (23): ρ_{3/2,4} = 1 − 3q + 4.5q² − 5.5q³ *)
  let c = Series.one_minus_over_one_plus_pow 1.5 4 in
  close "c0" 1.0 c.(0);
  close "c1" (-3.0) c.(1);
  close "c2" 4.5 c.(2);
  close "c3" (-5.5) c.(3)

let test_series_alpha_one () =
  (* ((1−q)/(1+q))^1 = 1 − 2q + 2q² − 2q³ … *)
  let c = Series.one_minus_over_one_plus_pow 1.0 5 in
  close "c0" 1.0 c.(0);
  close "c1" (-2.0) c.(1);
  close "c2" 2.0 c.(2);
  close "c3" (-2.0) c.(3);
  close "c4" 2.0 c.(4)

let prop_series_power_addition =
  QCheck.Test.make ~count:50
    ~name:"series: ρ_α · ρ_β = ρ_{α+β} (truncated Cauchy product)"
    QCheck.(pair (float_range 0.1 2.0) (float_range 0.1 2.0))
    (fun (a, b) ->
      let n = 10 in
      let pa = Series.one_minus_over_one_plus_pow a n in
      let pb = Series.one_minus_over_one_plus_pow b n in
      let pab = Series.one_minus_over_one_plus_pow (a +. b) n in
      let prod =
        Array.init n (fun k ->
            let acc = ref 0.0 in
            for i = 0 to k do
              acc := !acc +. (pa.(i) *. pb.(k - i))
            done;
            !acc)
      in
      Array.for_all2
        (fun x y -> Float.abs (x -. y) < 1e-7 *. (1.0 +. Float.abs y))
        prod pab)

let test_series_eval_nilpotent () =
  let q = Mat.shift_nilpotent 4 in
  let c = [| 1.0; -3.0; 4.5; -5.5 |] in
  let m = Series.eval_nilpotent c q in
  (* Toeplitz structure: row 0 = coefficients *)
  close "m00" 1.0 (Mat.get m 0 0);
  close "m01" (-3.0) (Mat.get m 0 1);
  close "m03" (-5.5) (Mat.get m 0 3);
  close "m12" (-3.0) (Mat.get m 1 2);
  close "m10" 0.0 (Mat.get m 1 0)

let test_series_eval_scalar () =
  (* 2 + 3x + 4x² at x = −3: 2 − 9 + 36 = 29 *)
  close "horner" 29.0 (Series.eval [| 2.0; 3.0; 4.0 |] (-3.0)) ~tol:1e-12

(* ---------- Poly ---------- *)

let test_poly_mul_eval () =
  let p = [| 1.0; 2.0 |] (* 1 + 2x *)
  and q = [| -1.0; 1.0 |] (* x − 1 *) in
  let r = Poly.mul p q in
  close "eval"
    ((1.0 +. (2.0 *. 0.7)) *. (0.7 -. 1.0))
    (Poly.eval r 0.7) ~tol:1e-12

let test_poly_derive_integrate () =
  let p = [| 5.0; 0.0; 3.0 |] in
  let back = Poly.derive (Poly.integrate p) in
  check_bool "d/dx ∘ ∫ = id" true
    (Array.for_all2
       (fun a b -> Float.abs (a -. b) < 1e-12)
       (Poly.normalize back) (Poly.normalize p))

let test_poly_definite_integral () =
  (* ∫₀¹ x² = 1/3 *)
  close "x² integral" (1.0 /. 3.0)
    (Poly.definite_integral [| 0.0; 0.0; 1.0 |] 0.0 1.0)
    ~tol:1e-12

let test_poly_legendre_values () =
  (* P_n(1) = 1 for all n *)
  List.iter
    (fun n ->
      close
        (Printf.sprintf "P_%d(1)" n)
        1.0
        (Poly.eval (Poly.legendre n) 1.0)
        ~tol:1e-9)
    [ 0; 1; 2; 3; 4; 5 ];
  (* P_2(x) = (3x² − 1)/2 *)
  close "P2(0)" (-0.5) (Poly.eval (Poly.legendre 2) 0.0) ~tol:1e-12

let test_poly_legendre_orthogonal () =
  let p3 = Poly.legendre 3 and p5 = Poly.legendre 5 in
  close "⟨P3,P5⟩ = 0" 0.0
    (Poly.definite_integral (Poly.mul p3 p5) (-1.0) 1.0)
    ~tol:1e-10;
  (* ‖P_n‖² = 2/(2n+1) *)
  close "‖P3‖²" (2.0 /. 7.0)
    (Poly.definite_integral (Poly.mul p3 p3) (-1.0) 1.0)
    ~tol:1e-10

let test_poly_shifted_legendre () =
  (* shifted: orthogonal on [0,1], SL_n(1) = 1 *)
  let sl4 = Poly.shifted_legendre 4 in
  close "SL4(1)" 1.0 (Poly.eval sl4 1.0) ~tol:1e-9;
  let sl2 = Poly.shifted_legendre 2 in
  close "⟨SL2,SL4⟩" 0.0
    (Poly.definite_integral (Poly.mul sl2 sl4) 0.0 1.0)
    ~tol:1e-10

(* ---------- Special ---------- *)

let test_gamma_values () =
  close "Γ(1)" 1.0 (Special.gamma 1.0) ~tol:1e-12;
  close "Γ(5)" 24.0 (Special.gamma 5.0) ~tol:1e-9;
  close "Γ(1/2)" (sqrt Float.pi) (Special.gamma 0.5) ~tol:1e-12;
  close "Γ(3/2)" (0.5 *. sqrt Float.pi) (Special.gamma 1.5) ~tol:1e-12;
  (* reflection: Γ(−1/2) = −2√π *)
  close "Γ(−1/2)" (-2.0 *. sqrt Float.pi) (Special.gamma (-0.5)) ~tol:1e-10

let test_lgamma_recurrence () =
  (* ln Γ(x+1) = ln Γ(x) + ln x *)
  List.iter
    (fun x ->
      close
        (Printf.sprintf "recurrence at %g" x)
        (Special.lgamma x +. log x)
        (Special.lgamma (x +. 1.0))
        ~tol:1e-10)
    [ 0.3; 1.7; 4.2; 10.5 ]

let test_erf_values () =
  close "erf(0)" 0.0 (Special.erf 0.0) ~tol:1e-14;
  close "erf(1)" 0.8427007929497149 (Special.erf 1.0) ~tol:1e-10;
  close "erf(−1)" (-0.8427007929497149) (Special.erf (-1.0)) ~tol:1e-10;
  close "erfc(1)" (1.0 -. 0.8427007929497149) (Special.erfc 1.0) ~tol:1e-10;
  close "erf+erfc" 1.0 (Special.erf 2.3 +. Special.erfc 2.3) ~tol:1e-12

let test_gammp_gammq () =
  close "P + Q = 1" 1.0 (Special.gammp 2.5 1.7 +. Special.gammq 2.5 1.7) ~tol:1e-12;
  (* P(1, x) = 1 − e^{−x} *)
  close "P(1,2)" (1.0 -. exp (-2.0)) (Special.gammp 1.0 2.0) ~tol:1e-10

let test_mittag_leffler_exp () =
  (* E_1(z) = e^z *)
  List.iter
    (fun z ->
      close
        (Printf.sprintf "E_1(%g)" z)
        (exp z)
        (Special.mittag_leffler ~alpha:1.0 z)
        ~tol:(1e-10 *. Float.max 1.0 (exp z)))
    [ -5.0; -1.0; 0.0; 1.0; 3.0 ]

let test_mittag_leffler_half () =
  (* E_{1/2}(−x) = e^{x²} erfc(x) *)
  List.iter
    (fun x ->
      close
        (Printf.sprintf "E_0.5(−%g)" x)
        (exp (x *. x) *. Special.erfc x)
        (Special.mittag_leffler ~alpha:0.5 (-.x))
        ~tol:1e-6)
    [ 0.1; 0.5; 1.0; 2.0; 4.0 ]

let test_mittag_leffler_two () =
  (* E_2(−x²) = cos x *)
  List.iter
    (fun x ->
      close
        (Printf.sprintf "E_2(−%g²)" x)
        (cos x)
        (Special.mittag_leffler ~alpha:2.0 (-.(x *. x)))
        ~tol:1e-8)
    [ 0.5; 1.0; 2.0; 3.0 ]

let test_mittag_leffler_asymptotic_tail () =
  (* deep negative: E_{1/2}(−x) ≈ 1/(x√π) *)
  let x = 50.0 in
  close "tail"
    (1.0 /. (x *. sqrt Float.pi))
    (Special.mittag_leffler ~alpha:0.5 (-.x))
    ~tol:1e-5

let test_ml_step_response () =
  close "t=0" 0.0 (Special.ml_step_response ~alpha:0.7 ~lambda:2.0 0.0) ~tol:1e-12;
  (* monotone increasing towards 1 for relaxation *)
  let a = Special.ml_step_response ~alpha:0.7 ~lambda:2.0 0.5 in
  let b = Special.ml_step_response ~alpha:0.7 ~lambda:2.0 5.0 in
  check_bool "monotone" true (a < b && b < 1.0)

let prop_ml_beta_recurrence =
  QCheck.Test.make ~count:40
    ~name:"mittag-leffler: E_{α,β}(z) = z·E_{α,α+β}(z) + 1/Γ(β)"
    QCheck.(pair (float_range 0.3 1.8) (float_range (-4.0) 4.0))
    (fun (alpha, z) ->
      let beta = 1.0 in
      let lhs = Special.mittag_leffler ~alpha ~beta z in
      let rhs =
        (z *. Special.mittag_leffler ~alpha ~beta:(alpha +. beta) z)
        +. (1.0 /. Special.gamma beta)
      in
      Float.abs (lhs -. rhs) < 1e-7 *. Float.max 1.0 (Float.abs lhs))

let () =
  let t name f = Alcotest.test_case name `Quick f in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "numkit"
    [
      ( "vec",
        [
          t "basics" test_vec_basics;
          t "axpy" test_vec_axpy;
          t "linspace" test_vec_linspace;
          t "dimension mismatch" test_vec_mismatch;
        ] );
      ( "mat",
        [
          t "mul identity" test_mat_mul_identity;
          t "mul known" test_mat_mul_known;
          t "transpose" test_mat_transpose;
          t "kron dims" test_mat_kron_dims;
          t "kron mixed product" test_mat_kron_mixed_product;
          t "nilpotent powers" test_mat_pow;
          t "tmul_vec" test_mat_tmul_vec;
          t "triangular predicate" test_mat_triangular_pred;
        ] );
      ( "lu",
        [
          t "solve known" test_lu_solve_known;
          t "determinant" test_lu_det;
          t "inverse" test_lu_inverse;
          t "singular raises" test_lu_singular;
          t "pivoting" test_lu_needs_pivoting;
          q prop_lu_residual;
          q prop_lu_profile_matches_dense;
        ] );
      ( "tri",
        [
          t "solve upper" test_tri_solve_upper;
          t "solve lower" test_tri_solve_lower;
          t "invert upper" test_tri_invert_upper;
          t "singular raises" test_tri_singular_exn;
          t "parlett sqrt squares back" test_parlett_square;
          t "parlett identity" test_parlett_identity_function;
          t "parlett exp commutes" test_parlett_exp_commutes;
          t "parlett confluent raises" test_parlett_confluent;
          q prop_parlett_power_addition;
        ] );
      ( "eig",
        [
          t "diagonal" test_eig_diagonal;
          t "rotation ±i" test_eig_rotation;
          t "companion roots" test_eig_companion_roots;
          t "hessenberg form" test_eig_hessenberg_form;
          t "spectral abscissa" test_spectral_abscissa;
          q prop_eig_trace_det;
        ] );
      ( "expm",
        [
          t "rotation" test_expm_rotation;
          t "scaling branch" test_expm_scaling_branch;
          t "zero matrix" test_expm_zero;
          t "phi1 values" test_phi1_values;
          q prop_expm_inverse;
          q prop_expm_trace_det;
        ] );
      ( "cmat",
        [
          t "solve" test_cmat_solve;
          t "factor reuse" test_cmat_factor_reuse;
          t "jomega_alpha" test_jomega_alpha;
        ] );
      ( "fft",
        [
          t "radix-2 vs naive" test_fft_matches_naive_pow2;
          t "bluestein vs naive" test_fft_matches_naive_arbitrary;
          t "roundtrip" test_fft_roundtrip;
          t "dc bin" test_fft_dc;
          t "parseval" test_fft_parseval;
          t "frequency layout" test_fft_frequencies;
        ] );
      ( "series",
        [
          t "binomial integer" test_series_binomial_integer;
          t "paper rho_{3/2,4}" test_series_paper_rho;
          t "alpha = 1" test_series_alpha_one;
          t "eval nilpotent toeplitz" test_series_eval_nilpotent;
          t "eval scalar" test_series_eval_scalar;
          q prop_series_power_addition;
        ] );
      ( "poly",
        [
          t "mul + eval" test_poly_mul_eval;
          t "derive ∘ integrate" test_poly_derive_integrate;
          t "definite integral" test_poly_definite_integral;
          t "legendre values" test_poly_legendre_values;
          t "legendre orthogonality" test_poly_legendre_orthogonal;
          t "shifted legendre" test_poly_shifted_legendre;
        ] );
      ( "special",
        [
          t "gamma values" test_gamma_values;
          t "lgamma recurrence" test_lgamma_recurrence;
          t "erf values" test_erf_values;
          t "incomplete gamma" test_gammp_gammq;
          t "mittag-leffler α=1" test_mittag_leffler_exp;
          t "mittag-leffler α=1/2" test_mittag_leffler_half;
          t "mittag-leffler α=2" test_mittag_leffler_two;
          t "mittag-leffler tail" test_mittag_leffler_asymptotic_tail;
          t "ml step response" test_ml_step_response;
          q prop_ml_beta_recurrence;
        ] );
    ]
