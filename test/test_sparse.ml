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
  let c = Coo.create ~rows:10 ~cols:10 in
  for i = 0 to 9 do
    for j = 0 to 9 do
      let v = Mat.get d i j in
      if v <> 0.0 then Coo.add c i j v
    done
  done;
  let m = Coo.to_csr c in
  close "dense roundtrip" 0.0 (Mat.max_abs_diff (Csr.to_dense m) d)

let test_coo_growth () =
  (* push past the initial capacity *)
  let c = Coo.create ~rows:100 ~cols:100 in
  for k = 0 to 999 do
    Coo.add c (k mod 100) (k / 10 mod 100) 1.0
  done;
  check_int "all entries kept" 1000 (Csr.nnz (Coo.to_csr c))

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
  let block_diagonal =
    (* three disconnected components: the ordering's graph has no edge
       between them *)
    Mat.init 12 12 (fun i j ->
        if i = j then 3.0 +. float_of_int i
        else if i / 4 = j / 4 then 1.0 /. float_of_int (1 + i + (2 * j))
        else 0.0)
  in
  let arrow =
    (* one dense row and column on a diagonal: AMD sets the dense node
       (degree 49, above its threshold of 48 at n = 50) aside and
       orders it last *)
    Mat.init 50 50 (fun i j ->
        if i = j then 60.0 +. float_of_int i
        else if i = 0 || j = 0 then 1.0 +. (0.01 *. float_of_int (i + j))
        else 0.0)
  in
  List.iter
    (fun (name, d) ->
      let n = d.Mat.rows in
      let b = Array.init n (fun i -> sin (float_of_int (i + 1))) in
      check_bool (name ^ ": sparse = dense solution") true
        (Vec.approx_equal ~tol:1e-10
           (Slu.solve_dense (Csr.of_dense d) b)
           (Lu.solve_dense d b)))
    [
      ("random n = 40", random_sparse 31 40);
      ("n = 0", Mat.zeros 0 0);
      ("n = 1", Mat.of_arrays [| [| -2.5 |] |]);
      ( "zero diagonal, off-diagonal pivots",
        Mat.of_arrays [| [| 0.0; 2.0 |]; [| 3.0; 0.0 |] |] );
      ("block diagonal", block_diagonal);
      ("50 x 50 arrow", arrow);
    ]

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

(* ---------- threshold pivoting + AMD fill ---------- *)

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

let test_slu_threshold_vs_strict () =
  let d = Csr.to_dense (shuffled_band 11 40 3) in
  let s = Csr.of_dense d in
  let b = Array.init 40 (fun i -> sin (float_of_int i)) in
  let x = Slu.solve (Slu.factor s) b in
  let x_strict = Slu.solve (Slu.factor ~pivot_tol:1.0 s) b in
  check_bool "sparse = dense LU" true
    (Vec.approx_equal ~tol:1e-9 x (Lu.solve_dense d b));
  check_bool "threshold = strict pivoting" true
    (Vec.approx_equal ~tol:1e-9 x x_strict)

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

(* ---------- Amd + symbolic/numeric split ---------- *)

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

(* nonzeros of L + U when [a] is eliminated in its own order without
   pivoting: the symbolic fill AMD is measured against *)
let natural_fill a =
  let n, _ = Csr.dims a in
  let pat = Array.make_matrix n n false in
  Csr.iter (fun i j _ -> pat.(i).(j) <- true) a;
  for k = 0 to n - 1 do
    for i = k + 1 to n - 1 do
      if pat.(i).(k) then
        for j = k + 1 to n - 1 do
          if pat.(k).(j) then pat.(i).(j) <- true
        done
    done
  done;
  Array.fold_left
    (fun acc row -> Array.fold_left (fun c b -> if b then c + 1 else c) acc row)
    0 pat

let test_amd_reduces_band_fill () =
  (* a band behind a random permutation: AMD finds an order with no
     fill, the factors hold just the matrix's own 994 nonzeros *)
  let a = shuffled_band 13 200 2 in
  let fill = Slu.nnz_factors (Slu.factor a) in
  check_int "shuffled band fill" 994 fill;
  check_bool
    (Printf.sprintf "fill %d (amd) < %d (natural)" fill (natural_fill a))
    true
    (fill < natural_fill a)

let test_amd_fill_le_natural () =
  let a = grid_pencil 6 6 3 in
  let fill = Slu.nnz_factors (Slu.factor a) in
  check_int "3-d grid fill" 2338 fill;
  check_bool
    (Printf.sprintf "fill %d (amd) <= %d (natural)" fill (natural_fill a))
    true
    (fill <= natural_fill a)

let test_amd_solves_grid () =
  let a = grid_pencil 5 4 3 in
  let n, _ = Csr.dims a in
  let b = Array.init n (fun i -> sin (float_of_int i)) in
  let x = Slu.solve (Slu.factor a) b in
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
  List.iter
    (fun (name, d, want) ->
      check_bool (name ^ ": dense LU raises too") true
        (match Lu.factor d with
        | _ -> false
        | exception Lu.Singular _ -> true);
      match Slu.factor (Csr.of_dense d) with
      | _ -> Alcotest.fail (name ^ ": expected Singular")
      | exception Slu.Singular k ->
          check_int (name ^ " names the original unknown") want k)
    [
      ( "unknown 7 disconnected",
        Mat.init n n (fun i j -> if i = 7 || j = 7 then 0.0 else Mat.get d0 i j),
        7 );
      ( "empty column 1",
        Mat.init n n (fun i j -> if j = 1 then 0.0 else Mat.get d0 i j),
        1 );
    ]

let test_refactor_singular_named () =
  let n = 9 in
  let d = Mat.init n n (fun i j -> if i = j then float_of_int (i + 2) else 0.0) in
  let a = Csr.of_dense d in
  let s, _ = Slu.analyze a in
  let values = Array.copy a.Csr.values in
  Array.iteri (fun k c -> if c = 4 then values.(k) <- 0.0) a.Csr.col_ind;
  let a2 = { a with Csr.values } in
  match Slu.refactor s a2 with
  | _ -> Alcotest.fail "expected Singular from refactor"
  | exception Slu.Singular k ->
      check_int "refactor names the original unknown" 4 k

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

let prop_slu_unsymmetric =
  QCheck.Test.make ~count:40
    ~name:"slu: off-diagonal pivots on random unsymmetric patterns"
    QCheck.(pair (int_range 20 200) (int_range 0 10_000))
    (fun (n, seed) ->
      let d = random_unsym seed n in
      let a = Csr.of_dense d in
      let b = Array.init n (fun i -> cos (float_of_int i)) in
      let s, f = Slu.analyze a in
      let x = Slu.solve f b in
      let xd = Lu.solve_dense d b in
      Vec.max_abs_diff x xd <= 1e-10 *. (1.0 +. Vec.norm_inf xd)
      && Slu.solve (Slu.refactor s a) b = x)

let test_unsymmetric_fill_pinned () =
  (* fill of the unpruned analysis on these patterns: pruning only
     shortens the DFS, so reach sets, pivots and fill must not move *)
  List.iter
    (fun (n, seed, want) ->
      check_int
        (Printf.sprintf "n=%d seed=%d fill" n seed)
        want
        (Slu.nnz_factors (Slu.factor (Csr.of_dense (random_unsym seed n)))))
    [ (20, 1, 110); (77, 6, 1476); (150, 7, 3692); (200, 4, 6094) ]

(* ---------- frozen bits ---------- *)

(* FNV-1a-64 over [Int64.bits_of_float] of every entry, bytes
   little-endian: a change of any bit of any entry changes the digest *)
let fnv1a64_floats (x : float array) =
  let h = ref 0xcbf29ce484222325L in
  Array.iter
    (fun v ->
      let bits = Int64.bits_of_float v in
      for b = 0 to 7 do
        let byte = Int64.logand (Int64.shift_right_logical bits (8 * b)) 0xffL in
        h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
      done)
    x;
  Printf.sprintf "%016Lx" !h

(* The factors of the NA and MNA power-grid pencils, pinned to their
   exact bits: fill, and the digests of a solve and a transpose solve.
   [solve_transpose] reads each U column in stored order, so its digest
   also pins the order of the U entries. A digest may only change
   together with an intended change of the factor arithmetic. *)
let test_factor_digests () =
  List.iter
    (fun (name, a, fill, d_solve, d_trans) ->
      let n, _ = Csr.dims a in
      let f = Slu.factor a in
      let b = Array.init n (fun i -> sin (float_of_int (i + 1))) in
      check_int (name ^ " fill") fill (Slu.nnz_factors f);
      Alcotest.(check string) (name ^ " solve digest") d_solve
        (fnv1a64_floats (Slu.solve f b));
      Alcotest.(check string) (name ^ " solve_transpose digest") d_trans
        (fnv1a64_floats (Slu.solve_transpose f b)))
    [
      ("na 16x16x3", na_grid_pencil 16 16 3, 27_488, "3a472905a8f68583", "8856abb9b6e8efdc");
      ("mna 16x16x3", grid_pencil 16 16 3, 30_412, "0cca84086f5bad9d", "ca58055f33908880");
    ]

(* [Csr.add] and [Csr.of_dense] as first written: each merged row built
   as lists, then copied out. The library versions must reproduce their
   pattern and every value bit. *)
let list_add ?(alpha = 1.0) ?(beta = 1.0) (a : Csr.t) (b : Csr.t) : Csr.t =
  let row_ptr = Array.make (a.rows + 1) 0 in
  let col_acc = ref [] and val_acc = ref [] and total = ref 0 in
  for i = 0 to a.rows - 1 do
    let ka = ref a.row_ptr.(i) and kb = ref b.row_ptr.(i) in
    let ea = a.row_ptr.(i + 1) and eb = b.row_ptr.(i + 1) in
    let row_cols = ref [] and row_vals = ref [] and count = ref 0 in
    let push c v =
      row_cols := c :: !row_cols;
      row_vals := v :: !row_vals;
      incr count
    in
    while !ka < ea || !kb < eb do
      if !ka < ea && (!kb >= eb || a.col_ind.(!ka) < b.col_ind.(!kb)) then begin
        push a.col_ind.(!ka) (alpha *. a.values.(!ka));
        incr ka
      end
      else if !kb < eb && (!ka >= ea || b.col_ind.(!kb) < a.col_ind.(!ka)) then begin
        push b.col_ind.(!kb) (beta *. b.values.(!kb));
        incr kb
      end
      else begin
        push a.col_ind.(!ka) ((alpha *. a.values.(!ka)) +. (beta *. b.values.(!kb)));
        incr ka;
        incr kb
      end
    done;
    col_acc := List.rev !row_cols :: !col_acc;
    val_acc := List.rev !row_vals :: !val_acc;
    total := !total + !count;
    row_ptr.(i + 1) <- !total
  done;
  let col_ind = Array.of_list (List.concat (List.rev !col_acc)) in
  let values = Array.of_list (List.concat (List.rev !val_acc)) in
  { rows = a.rows; cols = a.cols; row_ptr; col_ind; values }

let list_of_dense ?(tol = 0.0) d : Csr.t =
  let rows, cols = Mat.dims d in
  let row_ptr = Array.make (rows + 1) 0 in
  let col_acc = ref [] and val_acc = ref [] and total = ref 0 in
  for i = 0 to rows - 1 do
    let row_cols = ref [] and row_vals = ref [] in
    for j = cols - 1 downto 0 do
      let v = Mat.get d i j in
      if Float.abs v > tol then begin
        row_cols := j :: !row_cols;
        row_vals := v :: !row_vals;
        incr total
      end
    done;
    col_acc := !row_cols :: !col_acc;
    val_acc := !row_vals :: !val_acc;
    row_ptr.(i + 1) <- !total
  done;
  let col_ind = Array.of_list (List.concat (List.rev !col_acc)) in
  let values = Array.of_list (List.concat (List.rev !val_acc)) in
  { rows; cols; row_ptr; col_ind; values }

let same_csr_bits msg (want : Csr.t) (got : Csr.t) =
  let bits v = Array.map Int64.bits_of_float v in
  check_bool (msg ^ ": dims") true (want.rows = got.rows && want.cols = got.cols);
  Alcotest.(check (array int)) (msg ^ ": row_ptr") want.row_ptr got.row_ptr;
  Alcotest.(check (array int)) (msg ^ ": col_ind") want.col_ind got.col_ind;
  check_bool (msg ^ ": values, bit for bit") true (bits want.values = bits got.values)

(* random CSR with explicit zeros, ±0.0, NaN, empty rows, and (when
   [shadow] is given) entries that cancel [shadow]'s at shared columns *)
let random_csr_bits st ?shadow rows cols : Csr.t =
  let value () =
    match Random.State.int st 8 with
    | 0 -> 0.0
    | 1 -> -0.0
    | 2 -> Float.nan
    | 3 -> float_of_int (Random.State.int st 5 - 2)
    | _ -> Random.State.float st 2.0 -. 1.0
  in
  let row_ptr = Array.make (rows + 1) 0 in
  let cols_acc = ref [] and vals_acc = ref [] in
  for i = 0 to rows - 1 do
    let density = if Random.State.int st 4 = 0 then 0.0 else Random.State.float st 1.0 in
    let count = ref 0 in
    for j = 0 to cols - 1 do
      if Random.State.float st 1.0 < density then begin
        let v =
          match shadow with
          | Some (s : Csr.t) when Random.State.bool st ->
              let rec find k =
                if k >= s.row_ptr.(i + 1) then value ()
                else if s.col_ind.(k) = j then -.s.values.(k)
                else find (k + 1)
              in
              find s.row_ptr.(i)
          | _ -> value ()
        in
        cols_acc := j :: !cols_acc;
        vals_acc := v :: !vals_acc;
        incr count
      end
    done;
    row_ptr.(i + 1) <- row_ptr.(i) + !count
  done;
  {
    rows;
    cols;
    row_ptr;
    col_ind = Array.of_list (List.rev !cols_acc);
    values = Array.of_list (List.rev !vals_acc);
  }

let test_csr_add_matches_list_merge () =
  let st = Random.State.make [| 0xadd; 28 |] in
  let coeff () =
    match Random.State.int st 5 with
    | 0 -> 0.0
    | 1 -> 1.0
    | 2 -> -1.0
    | _ -> Random.State.float st 4.0 -. 2.0
  in
  for case = 0 to 199 do
    let rows = Random.State.int st 10 and cols = 1 + Random.State.int st 10 in
    let a = random_csr_bits st rows cols in
    let b = random_csr_bits st ~shadow:a rows cols in
    let msg = Printf.sprintf "case %d" case in
    same_csr_bits (msg ^ " defaults") (list_add a b) (Csr.add a b);
    let alpha = coeff () and beta = coeff () in
    same_csr_bits
      (Printf.sprintf "%s alpha %h beta %h" msg alpha beta)
      (list_add ~alpha ~beta a b) (Csr.add ~alpha ~beta a b)
  done;
  (* a cancelling pair stays an explicit zero *)
  let a = Csr.eye 3 in
  let sum = Csr.add ~beta:(-1.0) a a in
  check_int "cancelled entries kept" 3 (Csr.nnz sum);
  check_bool "as zeros" true (Array.for_all (fun v -> v = 0.0) sum.values)

let test_csr_of_dense_matches_list_build () =
  let st = Random.State.make [| 0xde5e; 28 |] in
  for case = 0 to 199 do
    let rows = Random.State.int st 10 and cols = Random.State.int st 10 in
    let d =
      Mat.init rows cols (fun _ _ ->
          match Random.State.int st 7 with
          | 0 | 1 -> 0.0
          | 2 -> -0.0
          | 3 -> Float.nan
          | _ -> Random.State.float st 2.0 -. 1.0)
    in
    let tol = if Random.State.bool st then 0.0 else Random.State.float st 0.5 in
    same_csr_bits
      (Printf.sprintf "case %d tol %h" case tol)
      (list_of_dense ~tol d) (Csr.of_dense ~tol d)
  done

(* ---------- allocation budgets ---------- *)

(* Gc.allocated_bytes is deterministic, so these gate what wall time on
   a shared host cannot. *)
let allocated f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)

(* The analysis of the 24×24×2 NA pencil allocates 0.70 MiB: the
   ordering and the O(n + nnz) work arrays, nothing per factor entry.
   The limit is about 1.5× that. A push that boxes each stored entry
   takes it to 2.7 MiB, and a [Csr.add] that builds its rows as lists,
   inside the ordering's A + Aᵀ, to 2.6 MiB. *)
let test_analyze_allocation () =
  let a = na_grid_pencil 24 24 2 in
  let r, bytes = allocated (fun () -> Slu.analyze a) in
  ignore (Sys.opaque_identity r);
  let mb = bytes /. 1048576.0 in
  if mb >= 1.05 then
    Alcotest.failf "Slu.analyze allocated %.2f MiB (limit 1.05 MiB)" mb

(* [Csr.add] allocates its three output arrays and nothing else *)
let test_add_allocation () =
  let spec = { Opm_circuit.Power_grid.default_spec with nx = 24; ny = 24; nz = 2 } in
  let mt, _ = Opm_circuit.Na2.stamp (Opm_circuit.Power_grid.generate spec) in
  let e = (List.hd mt.Opm_core.Multi_term.terms).Opm_core.Multi_term.coeff in
  let sum, bytes =
    allocated (fun () -> Csr.add ~alpha:2.0 ~beta:(-1.0) mt.Opm_core.Multi_term.a e)
  in
  (* each array: its words plus one header word *)
  let output = 8 * (sum.Csr.rows + 2 + (2 * (Csr.nnz sum + 1))) in
  if bytes > float_of_int (output + 256) then
    Alcotest.failf "Csr.add allocated %.0f bytes for %d bytes of output" bytes output

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
          t "transpose" test_csr_transpose;
          t "add" test_csr_add;
          t "eye + scale" test_csr_eye_scale;
          t "zero" test_csr_zero;
          q prop_csr_add_commutes;
          q prop_csr_matvec_linear;
        ] );
      ( "slu",
        [
          t "vs dense LU" test_slu_vs_dense;
          t "factor reuse" test_slu_factor_reuse;
          t "permutation needed" test_slu_permutation_needed;
          t "singular raises" test_slu_singular;
          t "dae pencil" test_slu_dae_pencil;
          t "tridiagonal no fill" test_slu_tridiagonal_no_fill;
          t "threshold = strict pivoting" test_slu_threshold_vs_strict;
          q prop_slu_random;
        ] );
      ( "amd",
        [
          t "permutation on random rlc" test_amd_permutation_rlc;
          t "permutation on power grid" test_amd_permutation_grid;
          t "reduces fill on shuffled band" test_amd_reduces_band_fill;
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
      ( "pruning",
        [
          t "reach edges bounded by fill" test_reach_edges_bounded;
          t "unsymmetric fill pinned" test_unsymmetric_fill_pinned;
          q prop_slu_unsymmetric;
        ] );
      ( "bits",
        [
          t "factor digests of the grid pencils" test_factor_digests;
          t "add matches the list merge" test_csr_add_matches_list_merge;
          t "of_dense matches the list build" test_csr_of_dense_matches_list_build;
        ] );
      ( "budgets",
        [
          t "analyze allocation" test_analyze_allocation;
          t "add allocates only its output" test_add_allocation;
        ] );
    ]
