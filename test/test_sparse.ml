(* Tests for the sparse-matrix substrate (COO builder, CSR, sparse LU). *)

open Opm_numkit
open Opm_sparse

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let random_sparse ?(density = 0.2) ?(dominant = true) seed n =
  let st = Random.State.make [| seed |] in
  Mat.init n n (fun i j ->
      if i = j && dominant then float_of_int n +. Random.State.float st 1.0
      else if Random.State.float st 1.0 < density then
        Random.State.float st 2.0 -. 1.0
      else 0.0)

(* ---------- Coo ---------- *)

let test_coo_merge () =
  let c = Coo.create ~rows:3 ~cols:3 in
  Coo.add c 0 0 1.0;
  Coo.add c 0 0 2.0;
  Coo.add c 2 1 5.0;
  Coo.add c 1 1 (-5.0);
  Coo.add c 1 1 5.0;
  check_int "entry count pre-merge" 5 (Coo.entry_count c);
  let m = Coo.to_csr c in
  close "duplicates summed" 3.0 (Csr.get m 0 0);
  close "single entry" 5.0 (Csr.get m 2 1);
  close "cancelled entry dropped" 0.0 (Csr.get m 1 1);
  check_int "explicit zeros dropped" 2 (Csr.nnz m)

let test_coo_bounds () =
  let c = Coo.create ~rows:2 ~cols:2 in
  check_bool "out of bounds raises" true
    (try
       Coo.add c 2 0 1.0;
       false
     with Invalid_argument _ -> true)

let test_coo_roundtrip () =
  let d = random_sparse ~dominant:false 7 10 in
  let m = Coo.to_csr (Coo.of_dense d) in
  close "dense roundtrip" 0.0 (Mat.max_abs_diff (Csr.to_dense m) d)

let test_coo_growth () =
  (* push past the initial capacity *)
  let c = Coo.create ~rows:100 ~cols:100 in
  for k = 0 to 999 do
    Coo.add c (k mod 100) (k / 10 mod 100) 1.0
  done;
  check_int "all entries kept" 1000 (Coo.entry_count c);
  check_bool "csr builds" true (Csr.nnz (Coo.to_csr c) > 0)

(* to_csr's contract against a stable sort-and-merge oracle: entries in
   (row, col) order, each run of duplicates summed left to right from
   0.0 in insertion order, zero sums dropped *)
let coo_oracle triplets =
  let sorted =
    List.stable_sort (fun (i1, j1, _) (i2, j2, _) -> compare (i1, j1) (i2, j2)) triplets
  in
  let rec merge acc = function
    | [] -> List.rev acc
    | (i, j, v) :: rest ->
        let rec run sum = function
          | (i', j', v') :: r when i' = i && j' = j -> run (sum +. v') r
          | r -> (sum, r)
        in
        let sum, rest = run (0.0 +. v) rest in
        merge (if sum <> 0.0 then (i, j, sum) :: acc else acc) rest
  in
  merge [] sorted

let csr_triplets (m : Csr.t) =
  List.concat
    (List.init m.Csr.rows (fun i ->
         List.init (m.Csr.row_ptr.(i + 1) - m.Csr.row_ptr.(i)) (fun k ->
             let p = m.Csr.row_ptr.(i) + k in
             (i, m.Csr.col_ind.(p), m.Csr.values.(p)))))

let coo_of rows cols triplets =
  let c = Coo.create ~rows ~cols in
  List.iter (fun (i, j, v) -> Coo.add c i j v) triplets;
  Coo.to_csr c

let check_triplets msg expected actual =
  let show (i, j, v) = Printf.sprintf "(%d,%d,%h)" i j v in
  Alcotest.(check (list string)) msg (List.map show expected) (List.map show actual)

let test_coo_matches_oracle () =
  let st = Random.State.make [| 0xc00; 17 |] in
  for case = 0 to 199 do
    let rows = 1 + Random.State.int st 12 and cols = 1 + Random.State.int st 12 in
    let value () =
      match Random.State.int st 5 with
      | 0 -> 0.0
      | 1 -> 1e17 *. (Random.State.float st 2.0 -. 1.0)
      | 2 -> float_of_int (Random.State.int st 5 - 2)
      | _ -> Random.State.float st 2.0 -. 1.0
    in
    let triplets =
      List.init (Random.State.int st 120) (fun _ ->
          (Random.State.int st rows, Random.State.int st cols, value ()))
    in
    (* cancelling pairs, so that some sums are exactly zero *)
    let triplets =
      List.concat_map
        (fun ((i, j, v) as t) -> if Random.State.int st 6 = 0 then [ t; (i, j, -.v) ] else [ t ])
        triplets
    in
    check_triplets
      (Printf.sprintf "case %d" case)
      (coo_oracle triplets)
      (csr_triplets (coo_of rows cols triplets))
  done

let test_coo_insertion_order () =
  check_triplets "1e17, 1, -1e17 sums to 0 and leaves no entry" []
    (csr_triplets (coo_of 1 1 [ (0, 0, 1e17); (0, 0, 1.0); (0, 0, -1e17) ]));
  check_triplets "1e17, -1e17, 1 keeps 1" [ (0, 0, 1.0) ]
    (csr_triplets (coo_of 1 1 [ (0, 0, 1e17); (0, 0, -1e17); (0, 0, 1.0) ]));
  check_triplets "explicit zeros dropped" [ (0, 1, 2.0) ]
    (csr_triplets (coo_of 2 2 [ (0, 0, 0.0); (0, 1, 2.0); (1, 0, 0.0); (1, 0, -0.0) ]))

(* ---------- Csr ---------- *)

let test_csr_get () =
  let d = Mat.of_arrays [| [| 0.0; 2.0; 0.0 |]; [| 1.0; 0.0; 3.0 |] |] in
  let s = Csr.of_dense d in
  close "stored" 2.0 (Csr.get s 0 1);
  close "structural zero" 0.0 (Csr.get s 0 0);
  close "stored 2" 3.0 (Csr.get s 1 2);
  check_int "nnz" 3 (Csr.nnz s)

let test_csr_mul_vec () =
  let d = random_sparse 11 20 in
  let s = Csr.of_dense d in
  let x = Array.init 20 (fun i -> sin (float_of_int i)) in
  check_bool "matches dense" true
    (Vec.approx_equal ~tol:1e-12 (Mat.mul_vec d x) (Csr.mul_vec s x))

let test_csr_tmul_vec () =
  let d = random_sparse ~dominant:false 13 15 in
  let s = Csr.of_dense d in
  let x = Array.init 15 (fun i -> cos (float_of_int i)) in
  check_bool "matches dense transpose" true
    (Vec.approx_equal ~tol:1e-12
       (Mat.mul_vec (Mat.transpose d) x)
       (Csr.tmul_vec s x))

let test_csr_transpose () =
  let d = random_sparse ~dominant:false 17 12 in
  let s = Csr.of_dense d in
  close "transpose matches dense" 0.0
    (Mat.max_abs_diff (Csr.to_dense (Csr.transpose s)) (Mat.transpose d));
  close "double transpose" 0.0
    (Csr.max_abs_diff (Csr.transpose (Csr.transpose s)) s)

let test_csr_add () =
  let da = random_sparse ~dominant:false 19 9 in
  let db = random_sparse ~dominant:false 23 9 in
  let sum =
    Csr.add ~alpha:2.0 ~beta:(-0.5) (Csr.of_dense da) (Csr.of_dense db)
  in
  let expected = Mat.add (Mat.scale 2.0 da) (Mat.scale (-0.5) db) in
  close "αA + βB" 0.0 (Mat.max_abs_diff (Csr.to_dense sum) expected) ~tol:1e-12

let test_csr_eye_scale () =
  let i5 = Csr.eye 5 in
  check_int "eye nnz" 5 (Csr.nnz i5);
  let s = Csr.scale 3.0 i5 in
  close "scaled diag" 3.0 (Csr.get s 2 2)

let test_csr_zero () =
  let z = Csr.zero ~rows:3 ~cols:4 in
  check_int "zero nnz" 0 (Csr.nnz z);
  let x = [| 1.0; 1.0; 1.0; 1.0 |] in
  check_bool "zero mul" true (Vec.approx_equal (Vec.zeros 3) (Csr.mul_vec z x))

let prop_csr_add_commutes =
  QCheck.Test.make ~count:30 ~name:"csr: A + B = B + A over random patterns"
    QCheck.(pair (int_range 1 15) (int_range 0 1000))
    (fun (n, seed) ->
      let a = Csr.of_dense (random_sparse ~dominant:false seed n) in
      let b = Csr.of_dense (random_sparse ~dominant:false (seed + 1) n) in
      Csr.max_abs_diff (Csr.add a b) (Csr.add b a) < 1e-14)

let prop_csr_matvec_linear =
  QCheck.Test.make ~count:30 ~name:"csr: (A + B)x = Ax + Bx"
    QCheck.(pair (int_range 1 15) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Random.State.make [| seed + 99 |] in
      let a = Csr.of_dense (random_sparse ~dominant:false seed n) in
      let b = Csr.of_dense (random_sparse ~dominant:false (seed + 2) n) in
      let x = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let lhs = Csr.mul_vec (Csr.add a b) x in
      let rhs = Vec.add (Csr.mul_vec a x) (Csr.mul_vec b x) in
      Vec.max_abs_diff lhs rhs < 1e-12)

(* ---------- Slu ---------- *)

let test_slu_vs_dense () =
  let d = random_sparse 31 40 in
  let s = Csr.of_dense d in
  let b = Array.init 40 (fun i -> sin (float_of_int i)) in
  check_bool "sparse = dense solution" true
    (Vec.approx_equal ~tol:1e-10 (Slu.solve_dense s b) (Lu.solve_dense d b))

let test_slu_factor_reuse () =
  let d = random_sparse 37 25 in
  let s = Csr.of_dense d in
  let f = Slu.factor s in
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let b = Array.init 25 (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let x = Slu.solve f b in
      let r = Vec.sub (Csr.mul_vec s x) b in
      close (Printf.sprintf "residual seed %d" seed) 0.0 (Vec.norm2 r) ~tol:1e-9)
    [ 1; 2; 3 ]

let test_slu_permutation_needed () =
  (* anti-diagonal: every pivot requires a row swap *)
  let n = 6 in
  let d =
    Mat.init n n (fun i j -> if i + j = n - 1 then float_of_int (i + 1) else 0.0)
  in
  let s = Csr.of_dense d in
  let b = Array.init n (fun i -> float_of_int (2 * i)) in
  let x = Slu.solve_dense s b in
  check_bool "residual" true (Vec.approx_equal ~tol:1e-12 (Csr.mul_vec s x) b)

let test_slu_singular () =
  let d = Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  check_bool "raises" true
    (try
       ignore (Slu.factor (Csr.of_dense d));
       false
     with Slu.Singular _ -> true)

let test_slu_dae_pencil () =
  (* the kind of matrix OPM factors for a DAE: d·E − A with singular E *)
  let e = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let a = Mat.of_arrays [| [| -1.0; 1.0 |]; [| 1.0; -2.0 |] |] in
  let pencil = Csr.of_dense (Mat.sub (Mat.scale 10.0 e) a) in
  let x = Slu.solve_dense pencil [| 1.0; 0.0 |] in
  let r = Vec.sub (Csr.mul_vec pencil x) [| 1.0; 0.0 |] in
  close "dae pencil residual" 0.0 (Vec.norm2 r) ~tol:1e-12

let test_slu_tridiagonal_no_fill () =
  (* a tridiagonal matrix factors with O(n) fill *)
  let n = 50 in
  let d =
    Mat.init n n (fun i j ->
        if i = j then 4.0 else if abs (i - j) = 1 then -1.0 else 0.0)
  in
  let s = Csr.of_dense d in
  let f = Slu.factor s in
  check_bool "fill stays linear" true (Slu.nnz_factors f <= 3 * n)

(* ---------- Rcm ---------- *)

let shuffled_band seed n bw =
  (* a band matrix viewed through a random symmetric permutation *)
  let st = Random.State.make [| seed |] in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- tmp
  done;
  let d =
    Mat.init n n (fun i j ->
        if abs (p.(i) - p.(j)) > bw then 0.0
        else if i = j then 4.0 +. Random.State.float st 1.0
        else Random.State.float st 0.5)
  in
  Csr.of_dense d

let test_rcm_is_permutation () =
  let a = shuffled_band 3 30 2 in
  let p = Rcm.ordering a in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  check_bool "bijection" true (Array.to_list sorted = List.init 30 Fun.id)

let test_rcm_reduces_bandwidth () =
  let a = shuffled_band 5 60 2 in
  let p = Rcm.ordering a in
  let permuted = Rcm.permute_symmetric a p in
  check_bool
    (Printf.sprintf "bandwidth %d -> %d" (Rcm.bandwidth a)
       (Rcm.bandwidth permuted))
    true
    (Rcm.bandwidth permuted < Rcm.bandwidth a / 2)

let test_rcm_permute_values () =
  let d = Mat.init 5 5 (fun i j -> float_of_int ((10 * i) + j)) in
  let a = Csr.of_dense d in
  let p = [| 4; 2; 0; 1; 3 |] in
  let a' = Rcm.permute_symmetric a p in
  (* a'_{ij} = a_{p(i) p(j)} *)
  Alcotest.(check (float 1e-12)) "entry" (Mat.get d 4 2) (Csr.get a' 0 1);
  Alcotest.(check (float 1e-12)) "entry 2" (Mat.get d 1 3) (Csr.get a' 3 4)

let test_rcm_inverse () =
  let p = [| 3; 0; 2; 1 |] in
  let inv = Rcm.inverse p in
  Array.iteri (fun i v -> Alcotest.(check int) "roundtrip" i inv.(p.(i)) |> ignore; ignore v) p

let test_slu_ordering_variants_agree () =
  let d = Csr.to_dense (shuffled_band 11 40 3) in
  let s = Csr.of_dense d in
  let b = Array.init 40 (fun i -> sin (float_of_int i)) in
  let x_rcm = Slu.solve (Slu.factor ~ordering:`Rcm s) b in
  let x_nat = Slu.solve (Slu.factor ~ordering:`Natural s) b in
  let x_strict = Slu.solve (Slu.factor ~pivot_tol:1.0 s) b in
  check_bool "rcm = natural" true (Vec.approx_equal ~tol:1e-9 x_rcm x_nat);
  check_bool "threshold = strict pivoting" true
    (Vec.approx_equal ~tol:1e-9 x_rcm x_strict)

let test_slu_rcm_reduces_fill () =
  let s = shuffled_band 13 200 2 in
  let f_rcm = Slu.factor ~ordering:`Rcm s in
  let f_nat = Slu.factor ~ordering:`Natural s in
  check_bool
    (Printf.sprintf "fill %d (rcm) < %d (natural)" (Slu.nnz_factors f_rcm)
       (Slu.nnz_factors f_nat))
    true
    (Slu.nnz_factors f_rcm < Slu.nnz_factors f_nat)

let prop_slu_random =
  QCheck.Test.make ~count:30 ~name:"slu: agrees with dense LU on random sparse"
    QCheck.(pair (int_range 2 30) (int_range 0 1000))
    (fun (n, seed) ->
      let d = random_sparse seed n in
      let st = Random.State.make [| seed * 7 |] in
      let b = Array.init n (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let xs = Slu.solve_dense (Csr.of_dense d) b in
      let xd = Lu.solve_dense d b in
      Vec.max_abs_diff xs xd < 1e-8)

(* ---------- Amd + symbolic/numeric split + Bcsr ---------- *)

let is_permutation n p =
  Array.length p = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun v ->
      if v < 0 || v >= n || seen.(v) then false
      else begin
        seen.(v) <- true;
        true
      end)
    p

let rlc_pencil seed nodes =
  let net =
    Opm_circuit.Generators.random_rlc ~seed ~nodes
      ~input:(Opm_signal.Source.Dc 1e-3) ()
  in
  let sys, _ = Opm_circuit.Mna.stamp_linear net in
  Csr.add ~alpha:2e11 ~beta:(-1.0) sys.Opm_core.Descriptor.e
    sys.Opm_core.Descriptor.a

let grid_system nx ny nz =
  let spec = { Opm_circuit.Power_grid.default_spec with nx; ny; nz } in
  let net = Opm_circuit.Power_grid.generate spec in
  let probe =
    [ Opm_circuit.Mna.Node_voltage (Opm_circuit.Power_grid.node_name ~x:0 ~y:0 ~z:0) ]
  in
  fst (Opm_circuit.Mna.stamp_linear ~outputs:probe net)

let grid_pencil ?(h = 1e-11) nx ny nz =
  let sys = grid_system nx ny nz in
  Csr.add ~alpha:(2.0 /. h) ~beta:(-1.0) sys.Opm_core.Descriptor.e
    sys.Opm_core.Descriptor.a

let test_amd_permutation_rlc () =
  List.iter
    (fun seed ->
      let a = rlc_pencil seed (20 + seed) in
      let n, _ = Csr.dims a in
      check_bool
        (Printf.sprintf "amd is a permutation (rlc seed %d)" seed)
        true
        (is_permutation n (Amd.ordering a)))
    [ 1; 2; 3; 4; 5 ]

let test_amd_permutation_grid () =
  let a = grid_pencil 6 5 3 in
  let n, _ = Csr.dims a in
  check_bool "amd is a permutation (power grid)" true
    (is_permutation n (Amd.ordering a))

let test_amd_fill_le_natural () =
  let a = grid_pencil 6 6 3 in
  let f_amd = Slu.factor ~ordering:`Amd a in
  let f_nat = Slu.factor ~ordering:`Natural a in
  check_bool
    (Printf.sprintf "fill %d (amd) <= %d (natural)" (Slu.nnz_factors f_amd)
       (Slu.nnz_factors f_nat))
    true
    (Slu.nnz_factors f_amd <= Slu.nnz_factors f_nat)

let test_amd_solves_grid () =
  let a = grid_pencil 5 4 3 in
  let n, _ = Csr.dims a in
  let b = Array.init n (fun i -> sin (float_of_int i)) in
  let x = Slu.solve (Slu.factor ~ordering:`Amd a) b in
  let r = Vec.sub (Csr.mul_vec a x) b in
  check_bool "amd-ordered solve residual" true
    (Vec.norm2 r /. Vec.norm2 b < 1e-9)

let test_refactor_bit_identical () =
  let check_one name a =
    let n, _ = Csr.dims a in
    let s, f0 = Slu.analyze a in
    let f1 = Slu.refactor s a in
    let fresh = Slu.factor a in
    let b = Array.init n (fun i -> sin (float_of_int (i + 1))) in
    let x0 = Slu.solve f0 b in
    check_bool (name ^ ": refactor = analyze factor, bit for bit") true
      (Slu.solve f1 b = x0);
    check_bool (name ^ ": refactor = fresh factor, bit for bit") true
      (Slu.solve fresh b = x0)
  in
  check_one "random" (Csr.of_dense (random_sparse 41 60));
  check_one "grid" (grid_pencil 5 4 3);
  check_one "rlc" (rlc_pencil 9 30)

let test_refactor_new_values () =
  (* the real workload: same pattern, different pencil diagonal *)
  let sys = grid_system 4 4 2 in
  let pencil h =
    Csr.add ~alpha:(2.0 /. h) ~beta:(-1.0) sys.Opm_core.Descriptor.e
      sys.Opm_core.Descriptor.a
  in
  let a1 = pencil 1e-11 and a2 = pencil 2.5e-11 in
  let s, _ = Slu.analyze a1 in
  let f2 = Slu.refactor s a2 in
  let n, _ = Csr.dims a2 in
  let b = Array.init n (fun i -> cos (float_of_int i)) in
  let x = Slu.solve f2 b in
  let r = Vec.sub (Csr.mul_vec a2 x) b in
  check_bool "refactored pencil residual" true
    (Vec.norm2 r /. Vec.norm2 b < 1e-9)

let test_refactor_pattern_mismatch () =
  let s, _ = Slu.analyze (grid_pencil 4 4 2) in
  check_bool "different size raises" true
    (try
       ignore (Slu.refactor s (rlc_pencil 3 10));
       false
     with Slu.Pattern_mismatch -> true);
  let a = Csr.of_dense (random_sparse 61 20) in
  let s20, _ = Slu.analyze a in
  check_bool "same size, different pattern raises" true
    (try
       ignore (Slu.refactor s20 (Csr.of_dense (random_sparse 62 20)));
       false
     with Slu.Pattern_mismatch -> true)

let test_singular_named_in_original_order () =
  let n = 12 in
  let d0 = random_sparse 53 n in
  (* structurally disconnect unknown 7 *)
  let d =
    Mat.init n n (fun i j -> if i = 7 || j = 7 then 0.0 else Mat.get d0 i j)
  in
  let s = Csr.of_dense d in
  List.iter
    (fun (name, ord) ->
      match Slu.factor ~ordering:ord s with
      | _ -> Alcotest.fail (name ^ ": expected Singular")
      | exception Slu.Singular k ->
          check_int (name ^ " names the original unknown") 7 k)
    [ ("amd", `Amd); ("rcm", `Rcm); ("natural", `Natural) ]

let test_refactor_singular_named () =
  let n = 9 in
  let d = Mat.init n n (fun i j -> if i = j then float_of_int (i + 2) else 0.0) in
  let a = Csr.of_dense d in
  let s, _ = Slu.analyze ~ordering:`Amd a in
  let values = Array.copy a.Csr.values in
  Array.iteri (fun k c -> if c = 4 then values.(k) <- 0.0) a.Csr.col_ind;
  let a2 = { a with Csr.values } in
  match Slu.refactor s a2 with
  | _ -> Alcotest.fail "expected Singular from refactor"
  | exception Slu.Singular k ->
      check_int "refactor names the original unknown under `Amd" 4 k

let test_refactor_unstable_and_hint_fallback () =
  let a1 = Csr.of_dense (Mat.of_arrays [| [| 1.0; 0.5 |]; [| 0.5; 1.0 |] |]) in
  let a2 =
    Csr.of_dense (Mat.of_arrays [| [| 1e-8; 1.0 |]; [| 1.0; 1e-8 |] |])
  in
  let s, _ = Slu.analyze a1 in
  check_bool "degraded pivot raises Unstable" true
    (try
       ignore (Slu.refactor s a2);
       false
     with Slu.Unstable _ -> true);
  (* the hinted path must recover with a fresh analysis, never a wrong
     answer *)
  let hint = ref None in
  ignore (Slu.factor_hinted ~hint a1);
  check_bool "hint filled" true (!hint <> None);
  let f2 = Slu.factor_hinted ~hint a2 in
  let b = [| 1.0; -1.0 |] in
  let r = Vec.sub (Csr.mul_vec a2 (Slu.solve f2 b)) b in
  check_bool "hinted fallback residual" true (Vec.norm2 r < 1e-9)

let test_solve_many_matches_map () =
  let a = grid_pencil 4 4 2 in
  let n, _ = Csr.dims a in
  let f = Slu.factor a in
  let bs =
    Array.init 7 (fun r ->
        Array.init n (fun i -> sin (float_of_int ((r * n) + i + 1))))
  in
  let seq = Array.map (Slu.solve f) bs in
  check_bool "pooled back-solve batch bit-identical to sequential" true
    (Slu.solve_many f bs = seq);
  Opm_parallel.Pool.with_pool ~domains:3 (fun pool ->
      check_bool "explicit pool bit-identical" true
        (Slu.solve_many ~pool f bs = seq))

(* Bigarray-backed storage must agree with the array-backed ops to the
   last bit *)

let bcsr_cases () =
  let empty_rows =
    Mat.init 12 12 (fun i j ->
        if i mod 3 = 0 then 0.0
        else if (i + j) mod 4 = 0 then float_of_int (i - j) /. 7.0
        else 0.0)
  in
  let dup =
    let c = Coo.create ~rows:8 ~cols:8 in
    for k = 0 to 40 do
      Coo.add c (k mod 8) (k * 3 mod 8) (sin (float_of_int k))
    done;
    (* duplicate coordinates on purpose: they merge in to_csr *)
    Coo.add c 2 6 0.125;
    Coo.add c 2 6 0.25;
    Coo.to_csr c
  in
  [
    ("random", Csr.of_dense (random_sparse ~dominant:false 47 18));
    ("empty rows", Csr.of_dense empty_rows);
    ("duplicate coords", dup);
  ]

let test_bcsr_roundtrip () =
  List.iter
    (fun (name, a) ->
      let b = Bcsr.to_csr (Bcsr.of_csr a) in
      check_bool (name ^ ": roundtrip row_ptr") true
        (b.Csr.row_ptr = a.Csr.row_ptr);
      check_bool (name ^ ": roundtrip col_ind") true
        (b.Csr.col_ind = a.Csr.col_ind);
      check_bool (name ^ ": roundtrip values") true (b.Csr.values = a.Csr.values))
    (bcsr_cases ())

let test_bcsr_ops_bit_identical () =
  List.iter
    (fun (name, a) ->
      let b = Bcsr.of_csr a in
      let rows, cols = Csr.dims a in
      let x = Array.init cols (fun i -> cos (float_of_int (3 * i))) in
      let xt = Array.init rows (fun i -> sin (float_of_int (2 * i))) in
      check_bool (name ^ ": mul_vec bit-identical") true
        (Bcsr.mul_vec b x = Csr.mul_vec a x);
      check_bool (name ^ ": tmul_vec bit-identical") true
        (Bcsr.tmul_vec b xt = Csr.tmul_vec a xt);
      let sc = Bcsr.to_csr (Bcsr.scale (-0.37) b) in
      check_bool (name ^ ": scale bit-identical") true
        (sc.Csr.values = (Csr.scale (-0.37) a).Csr.values);
      let other =
        Csr.of_dense
          (Mat.init rows cols (fun i j ->
               if (i + (2 * j)) mod 3 = 0 then float_of_int (j - i) /. 11.0
               else 0.0))
      in
      let s_ref = Csr.add ~alpha:1.25 ~beta:(-2.0) a other in
      let s_big =
        Bcsr.to_csr (Bcsr.add ~alpha:1.25 ~beta:(-2.0) b (Bcsr.of_csr other))
      in
      check_bool (name ^ ": add pattern identical") true
        (s_big.Csr.row_ptr = s_ref.Csr.row_ptr
        && s_big.Csr.col_ind = s_ref.Csr.col_ind);
      check_bool (name ^ ": add values bit-identical") true
        (s_big.Csr.values = s_ref.Csr.values))
    (bcsr_cases ())

let test_bcsr_factor_agrees () =
  let a = grid_pencil 4 4 2 in
  let n, _ = Csr.dims a in
  let f_arr = Slu.factor a in
  let f_big = Slu.factor_b (Bcsr.of_csr a) in
  let b = Array.init n (fun i -> sin (float_of_int (i + 1))) in
  check_bool "bigarray-backed factor solves bit-identically" true
    (Slu.solve f_big b = Slu.solve f_arr b)

(* ---------- symmetric pruning of the reach DFS ---------- *)

(* the second-order NA pencil of a power grid, as the engine builds it
   for a uniform step h: Σ_k (2/h)^{α_k}·E_k − A *)
let na_grid_pencil ?(h = 1e-11) nx ny nz =
  let spec = { Opm_circuit.Power_grid.default_spec with nx; ny; nz } in
  let mt, _ = Opm_circuit.Na2.stamp (Opm_circuit.Power_grid.generate spec) in
  List.fold_left
    (fun acc (t : Opm_core.Multi_term.term) ->
      Csr.add ~beta:((2.0 /. h) ** t.alpha) acc t.coeff)
    (Csr.scale (-1.0) mt.Opm_core.Multi_term.a)
    mt.Opm_core.Multi_term.terms

(* L entries the analysis's reach DFS scans, from the op-count metric *)
let reach_edges f =
  let module Metrics = Opm_obs.Metrics in
  let was = Metrics.enabled () in
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was) @@ fun () ->
  Metrics.set_enabled true;
  let c = Metrics.counter "slu.reach_edges" in
  let before = Metrics.counter_value c in
  let r = f () in
  (r, Metrics.counter_value c - before)

let test_reach_edges_bounded () =
  (* without pruning the DFS rescans whole L columns: 630 246 edges for
     the 39 536 factor nonzeros of this pencil *)
  let a = na_grid_pencil 24 24 2 in
  let f, edges = reach_edges (fun () -> Slu.factor a) in
  let nnz = Slu.nnz_factors f in
  check_int "fill" 39_536 nnz;
  check_bool "the DFS reports its edges" true (edges > 0);
  check_bool
    (Printf.sprintf "reach edges %d <= 2 * nnz_factors %d" edges nnz)
    true
    (edges <= 2 * nnz)

(* Random unsymmetric patterns that threshold pivoting must leave the
   diagonal on. Row i carries one dominant entry, magnitude in [2, 3),
   at column σ(i): σ fixes about half of the rows and shuffles the
   rest, and where σ(i) ≠ i the diagonal is present but weak (≤ 0.02),
   so those columns pivot off the diagonal. A few scattered entries
   per row sum below 1 in magnitude, so every row of A is dominated by
   its σ entry and A is nonsingular. *)
let random_unsym seed n =
  let st = Random.State.make [| seed |] in
  let sign () = if Random.State.bool st then 1.0 else -1.0 in
  let moved =
    Array.of_list
      (List.filter (fun _ -> Random.State.bool st) (List.init n Fun.id))
  in
  let img = Array.copy moved in
  for i = Array.length img - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = img.(i) in
    img.(i) <- img.(j);
    img.(j) <- t
  done;
  let sigma = Array.init n Fun.id in
  Array.iteri (fun q i -> sigma.(i) <- img.(q)) moved;
  let d = Mat.zeros n n in
  for i = 0 to n - 1 do
    let extras = 1 + Random.State.int st 4 in
    for _ = 1 to extras do
      let c = Random.State.int st n in
      if c <> i && c <> sigma.(i) then
        Mat.set d i c
          ((Random.State.float st 2.0 -. 1.0) /. float_of_int (extras + 1))
    done;
    if sigma.(i) <> i then
      Mat.set d i i (sign () *. (0.01 +. Random.State.float st 0.01));
    Mat.set d i sigma.(i) (sign () *. (2.0 +. Random.State.float st 1.0))
  done;
  d

let orderings : (string * Slu.ordering) list =
  [ ("amd", `Amd); ("rcm", `Rcm); ("natural", `Natural) ]

let prop_slu_unsymmetric =
  QCheck.Test.make ~count:40
    ~name:"slu: off-diagonal pivots on random unsymmetric patterns"
    QCheck.(triple (int_range 20 200) (int_range 0 10_000) (int_range 0 2))
    (fun (n, seed, o) ->
      let ordering = snd (List.nth orderings o) in
      let d = random_unsym seed n in
      let a = Csr.of_dense d in
      let b = Array.init n (fun i -> cos (float_of_int i)) in
      let s, f = Slu.analyze ~ordering a in
      let x = Slu.solve f b in
      let xd = Lu.solve_dense d b in
      Vec.max_abs_diff x xd <= 1e-10 *. (1.0 +. Vec.norm_inf xd)
      && Slu.solve (Slu.refactor s a) b = x)

let test_unsymmetric_fill_pinned () =
  (* fill of the unpruned analysis on these patterns: pruning only
     shortens the DFS, so reach sets, pivots and fill must not move *)
  List.iter
    (fun (n, seed, fills) ->
      let a = Csr.of_dense (random_unsym seed n) in
      List.iter2
        (fun (name, ordering) want ->
          check_int
            (Printf.sprintf "n=%d seed=%d %s fill" n seed name)
            want
            (Slu.nnz_factors (Slu.factor ~ordering a)))
        orderings fills)
    [
      (20, 1, [ 110; 128; 131 ]);
      (77, 6, [ 1476; 1546; 1906 ]);
      (150, 7, [ 3692; 4846; 5270 ]);
      (200, 4, [ 6094; 7195; 9034 ]);
    ]

let () =
  let t name f = Alcotest.test_case name `Quick f in
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "sparse"
    [
      ( "coo",
        [
          t "duplicate merging" test_coo_merge;
          t "bounds checking" test_coo_bounds;
          t "dense roundtrip" test_coo_roundtrip;
          t "capacity growth" test_coo_growth;
          t "matches a stable sort-and-merge oracle" test_coo_matches_oracle;
          t "duplicates summed in insertion order" test_coo_insertion_order;
        ] );
      ( "csr",
        [
          t "get" test_csr_get;
          t "mul_vec" test_csr_mul_vec;
          t "tmul_vec" test_csr_tmul_vec;
          t "transpose" test_csr_transpose;
          t "add" test_csr_add;
          t "eye + scale" test_csr_eye_scale;
          t "zero" test_csr_zero;
          q prop_csr_add_commutes;
          q prop_csr_matvec_linear;
        ] );
      ( "rcm",
        [
          t "is a permutation" test_rcm_is_permutation;
          t "reduces bandwidth" test_rcm_reduces_bandwidth;
          t "permute values" test_rcm_permute_values;
          t "inverse" test_rcm_inverse;
          t "ordering variants agree" test_slu_ordering_variants_agree;
          t "rcm reduces fill" test_slu_rcm_reduces_fill;
        ] );
      ( "slu",
        [
          t "vs dense LU" test_slu_vs_dense;
          t "factor reuse" test_slu_factor_reuse;
          t "permutation needed" test_slu_permutation_needed;
          t "singular raises" test_slu_singular;
          t "dae pencil" test_slu_dae_pencil;
          t "tridiagonal no fill" test_slu_tridiagonal_no_fill;
          q prop_slu_random;
        ] );
      ( "amd",
        [
          t "permutation on random rlc" test_amd_permutation_rlc;
          t "permutation on power grid" test_amd_permutation_grid;
          t "fill <= natural on 3-d grid" test_amd_fill_le_natural;
          t "solves grid pencil" test_amd_solves_grid;
          t "singular named in original order"
            test_singular_named_in_original_order;
        ] );
      ( "refactor",
        [
          t "bit-identical to fresh factor" test_refactor_bit_identical;
          t "new values same pattern" test_refactor_new_values;
          t "pattern mismatch raises" test_refactor_pattern_mismatch;
          t "singular named under amd" test_refactor_singular_named;
          t "unstable + hinted fallback" test_refactor_unstable_and_hint_fallback;
          t "solve_many bit-identical" test_solve_many_matches_map;
        ] );
      ( "bcsr",
        [
          t "roundtrip" test_bcsr_roundtrip;
          t "ops bit-identical" test_bcsr_ops_bit_identical;
          t "factor agrees" test_bcsr_factor_agrees;
        ] );
      ( "pruning",
        [
          t "reach edges bounded by fill" test_reach_edges_bounded;
          t "unsymmetric fill pinned" test_unsymmetric_fill_pinned;
          q prop_slu_unsymmetric;
        ] );
    ]
