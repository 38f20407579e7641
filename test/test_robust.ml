(* Tests for the solver guardrails: structured errors, the condition
   estimator, the fallback cascade, adaptive local grid refinement, and
   the health report. *)

open Opm_numkit
open Opm_sparse
open Opm_basis
open Opm_signal
open Opm_core
open Opm_circuit
open Opm_robust

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let random_system seed n =
  let st = Random.State.make [| seed |] in
  let e =
    Mat.init n n (fun r c ->
        (if r = c then 2.0 else 0.0) +. (0.1 *. Random.State.float st 1.0))
  in
  let a =
    Mat.init n n (fun r c ->
        (if r = c then -3.0 else 0.0) +. (0.2 *. Random.State.float st 1.0))
  in
  (e, a)

(* ---------- Guard combinators ---------- *)

let test_guard_finite () =
  check_bool "clean" true (Guard.is_finite [| 0.0; -1.5; 1e300 |]);
  check_bool "nan" false (Guard.is_finite [| 0.0; Float.nan |]);
  check_bool "inf" false (Guard.is_finite [| Float.infinity |]);
  let nans, infs =
    Guard.count_non_finite [| Float.nan; 1.0; Float.neg_infinity; Float.nan |]
  in
  check_int "nans" 2 nans;
  check_int "infs" 1 infs

let test_guard_protect () =
  check_bool "protect captures" true
    (match Guard.protect (fun () -> failwith "boom") with
    | Error (Failure m) -> m = "boom"
    | _ -> false)

(* ---------- error rendering ---------- *)

let test_error_to_string () =
  let s =
    Opm_error.to_string
      (Opm_error.Singular_pencil
         { column = 7; step = 2; pivot = 1e-15; name = Some "v(out)" })
  in
  check_bool "names the state" true
    (contains s "v(out)");
  check_bool "names the column" true (contains s "7");
  let s =
    Opm_error.to_string
      (Opm_error.Non_finite { stage = "solve-dense"; column = Some 3; nans = 2; infs = 0 })
  in
  check_bool "non-finite stage" true
    (contains s "solve-dense");
  check_bool "registered printer" true
    (Fun.flip contains "i/o error"
       (Printexc.to_string
          (Opm_error.Error (Opm_error.Io_error { path = "x"; message = "nope" }))))

(* ---------- condition estimation ---------- *)

(* exact 1-norm condition number via the explicit inverse *)
let true_cond1 a =
  let n, _ = Mat.dims a in
  let f = Lu.factor a in
  let inv = Mat.zeros n n in
  for j = 0 to n - 1 do
    let e = Array.make n 0.0 in
    e.(j) <- 1.0;
    let col = Lu.solve f e in
    for i = 0 to n - 1 do
      Mat.set inv i j col.(i)
    done
  done;
  let norm1 m =
    let best = ref 0.0 in
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        s := !s +. Float.abs (Mat.get m i j)
      done;
      if !s > !best then best := !s
    done;
    !best
  in
  norm1 a *. norm1 inv

let references =
  [
    Mat.of_arrays
      [|
        [| 4.0; 1.0; 0.0; 0.0; 0.0 |];
        [| 1.0; 4.0; 1.0; 0.0; 0.0 |];
        [| 0.0; 1.0; 4.0; 1.0; 0.0 |];
        [| 0.0; 0.0; 1.0; 4.0; 1.0 |];
        [| 0.0; 0.0; 0.0; 1.0; 4.0 |];
      |];
    (* geometric diagonal: condition 1e4 *)
    Mat.init 5 5 (fun r c -> if r = c then 10.0 ** float_of_int (r - 2) else 0.0);
    (* Hilbert-flavoured: genuinely ill-conditioned *)
    Mat.init 5 5 (fun r c -> 1.0 /. float_of_int (r + c + 1));
  ]

let test_cond_est_dense () =
  List.iteri
    (fun k a ->
      let kappa = true_cond1 a in
      let est = Lu.cond_est (Lu.factor a) in
      let msg = Printf.sprintf "reference %d (true %g, est %g)" k kappa est in
      check_bool msg true (est <= kappa *. 10.0 && est >= kappa /. 10.0))
    references

let test_cond_est_sparse () =
  List.iteri
    (fun k a ->
      let kappa = true_cond1 a in
      let est = Slu.cond_est (Slu.factor (Csr.of_dense a)) in
      let msg = Printf.sprintf "reference %d (true %g, est %g)" k kappa est in
      check_bool msg true (est <= kappa *. 10.0 && est >= kappa /. 10.0))
    references

let test_cond_est_cached () =
  let f = Lu.factor (List.nth references 0) in
  close "second call identical" 0.0 (Lu.cond_est f -. Lu.cond_est f)

(* ---------- transpose solves (the estimator's workhorse) ---------- *)

let test_solve_transpose () =
  let e, a = random_system 11 6 in
  ignore e;
  let st = Random.State.make [| 12 |] in
  let b = Array.init 6 (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let x = Lu.solve_transpose (Lu.factor a) b in
  (* Aᵀx = b *)
  let r = Mat.mul_vec (Mat.transpose a) x in
  Array.iteri (fun i ri -> close "A^T x = b" b.(i) ri ~tol:1e-10) r;
  let xs = Slu.solve_transpose (Slu.factor (Csr.of_dense a)) b in
  Array.iteri (fun i xi -> close "sparse = dense" x.(i) xi ~tol:1e-10) xs

(* ---------- structured singular errors ---------- *)

(* the column engine on one explicit (E, D) term, naive history scan *)
let solve_term ?health pencil d ~bu =
  Engine.solve
    (Engine.prepare { Engine.default with health } pencil
       (Engine.triangular ~orders:[ 1.0 ] [ d ]))
    bu

let test_singular_dense () =
  (* second row of both E and A is zero: the pencil d·E − A has a zero
     row whatever d is, so elimination fails at state index 1 *)
  let e = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let a = Mat.of_arrays [| [| -1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let grid = Grid.uniform ~t_end:1.0 ~m:4 in
  let d = Block_pulse.differential_matrix grid in
  let bu = Mat.init 2 4 (fun _ _ -> 1.0) in
  match solve_term (Engine.pencil `Dense [ Csr.of_dense e; Csr.of_dense a ]) d ~bu with
  | _ -> Alcotest.fail "expected Singular_pencil"
  | exception Opm_error.Error (Opm_error.Singular_pencil { column; step; _ }) ->
      check_int "failing time column" 0 column;
      check_int "failing state" 1 step

let test_singular_sparse_cascade () =
  (* same singular pencil through the sparse backend: the cascade tries
     strict pivoting, then a dense factorisation, and only then raises —
     with the fallback steps visible in the health report *)
  let e = Mat.of_arrays [| [| 1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let a = Mat.of_arrays [| [| -1.0; 0.0 |]; [| 0.0; 0.0 |] |] in
  let grid = Grid.uniform ~t_end:1.0 ~m:4 in
  let d = Block_pulse.differential_matrix grid in
  let bu = Mat.init 2 4 (fun _ _ -> 1.0) in
  let health = Health.create () in
  match
    solve_term ~health
      (Engine.pencil `Sparse [ Csr.of_dense e; Csr.of_dense a ])
      d ~bu
  with
  | _ -> Alcotest.fail "expected Singular_pencil"
  | exception Opm_error.Error (Opm_error.Singular_pencil { column; step; _ }) ->
      check_int "failing time column" 0 column;
      check_int "failing state" 1 step;
      check_bool "strict pivoting was tried" true
        (List.exists
           (function Health.Strict_refactor _ -> true | _ -> false)
           (Health.events health))

let test_singular_netlist () =
  (* two parallel voltage sources force contradictory KVL constraints:
     the MNA pencil is structurally singular and the error must identify
     a source-current state *)
  let net = Parser.parse_string "V1 a 0 step(1)\nV2 a 0 step(2)\nR1 a 0 1k\n" in
  let mt, srcs = Mna.stamp net in
  let grid = Grid.uniform ~t_end:1e-3 ~m:8 in
  match Opm.simulate_multi_term ~grid mt srcs with
  | _ -> Alcotest.fail "expected Singular_pencil"
  | exception Opm_error.Error (Opm_error.Singular_pencil { step; _ }) ->
      let state = mt.Multi_term.state_names.(step) in
      check_bool
        (Printf.sprintf "failing state %s is a source current" state)
        true
        (has_prefix "i(" state)

(* ---------- near-singular refinement ---------- *)

let test_near_singular_refinement () =
  (* stiff diagonal pencil: with h = 1/8192 the diagonal block
     diag(2/h + 1, 2/h + 1e13) has a 1-norm condition ≈ 6·10⁸, above
     the 1e8 default limit, so every column must attempt iterative
     refinement (recording the event) while the recovered waveform
     still matches the analytic solution to 1e-8 *)
  let n = 2 in
  let e = Mat.eye n in
  let a = Mat.of_arrays [| [| -1.0; 0.0 |]; [| 0.0; -1e13 |] |] in
  let m = 8192 in
  let grid = Grid.uniform ~t_end:1.0 ~m in
  let bu = Mat.init n m (fun _ _ -> 1.0) in
  let health = Health.create () in
  let x =
    Engine.solve
      (Engine.prepare
         { Engine.default with health = Some health }
         (Engine.pencil `Dense [ Csr.of_dense e; Csr.of_dense a ])
         (Engine.alternating (Grid.steps grid)))
      bu
  in
  check_bool "refinement attempted" true
    (List.exists
       (function Health.Refined _ -> true | _ -> false)
       (Health.events health));
  check_bool "condition flagged" true
    (Health.worst_cond health > Health.default_cond_limit);
  (* analytic: ẋ₁ = −x₁ + 1 from 0; the BPF coefficient approximates
     the interval average of 1 − e^{−t} *)
  let h = 1.0 /. float_of_int m in
  for i = 0 to m - 1 do
    let t0 = float_of_int i *. h in
    let avg = 1.0 -. ((Float.exp (-.t0) -. Float.exp (-.(t0 +. h))) /. h) in
    close "x1 matches analytic" avg (Mat.get x 0 i) ~tol:1e-8
  done;
  (* the fast second state sits at its 1e-13 equilibrium throughout *)
  close "x2 equilibrium" 1e-13 (Mat.get x 1 (m - 1)) ~tol:1e-16

(* ---------- guards are bit-identical no-ops when healthy ---------- *)

let test_noop_on_well_conditioned () =
  let e, a = random_system 21 8 in
  let m = 12 in
  let grid = Grid.uniform ~t_end:1.0 ~m in
  let d = Block_pulse.differential_matrix grid in
  let st = Random.State.make [| 22 |] in
  let bu = Mat.init 8 m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
  let health = Health.create () in
  let x_with = solve_term ~health (Engine.pencil `Dense [ Csr.of_dense e; Csr.of_dense a ]) d ~bu in
  let x_without = solve_term (Engine.pencil `Dense [ Csr.of_dense e; Csr.of_dense a ]) d ~bu in
  close "bit-identical with/without health" 0.0
    (Mat.max_abs_diff x_with x_without);
  check_int "no fallback events" 0 (Health.fallback_count health);
  check_int "no NaNs" 0 (Health.nans health);
  check_int "every column checked" m (Health.columns health);
  check_bool "no warnings" true (Health.warnings health = []);
  let xs_with =
    solve_term ~health:(Health.create ())
      (Engine.pencil `Sparse [ Csr.of_dense e; Csr.of_dense a ])
      d ~bu
  in
  let xs_without =
    solve_term (Engine.pencil `Sparse [ Csr.of_dense e; Csr.of_dense a ]) d ~bu
  in
  close "sparse bit-identical" 0.0 (Mat.max_abs_diff xs_with xs_without)

(* ---------- health report ---------- *)

let test_health_report () =
  let h = Health.create () in
  Health.record_vec h [| 1.0; 2.0 |];
  Health.record_residual h 1e-12;
  Health.record_cond h 42.0;
  check_bool "clean report ok" true
    (Astring.String.is_infix ~affix:"status: ok" (Health.to_string h));
  Health.record_vec h [| Float.nan; Float.infinity |];
  Health.record_event h (Health.Dense_fallback { column = 3 });
  check_int "nan counted" 1 (Health.nans h);
  check_int "inf counted" 1 (Health.infs h);
  check_int "fallback counted" 1 (Health.fallback_count h);
  check_bool "warnings present" true (Health.warnings h <> []);
  check_bool "report carries warning count" true
    (Astring.String.is_infix ~affix:"warning" (Health.to_string h));
  (* residuals: NaN must poison the max, not vanish in a comparison *)
  let h2 = Health.create () in
  Health.record_residual h2 Float.nan;
  check_bool "NaN residual -> infinite max" true
    (Health.max_residual h2 = Float.infinity)

(* ---------- adaptive local grid refinement ---------- *)

let test_adaptive_non_finite () =
  (* source turns NaN after t = 0.1: the driver must halve the step the
     bounded number of times, record each halving, then raise the
     structured error — never feed NaN to the error controller *)
  let sys = Descriptor.scalar ~e:1.0 ~a:(-1.0) ~b:1.0 in
  let poison = Source.Fn (fun t -> if t > 0.1 then Float.nan else 1.0) in
  let health = Health.create () in
  match Adaptive.solve ~health ~t_end:1.0 sys [| poison |] with
  | _ -> Alcotest.fail "expected Non_finite"
  | exception Opm_error.Error (Opm_error.Non_finite { stage; _ }) ->
      Alcotest.(check string) "stage" "adaptive" stage;
      (* halvings accumulate over the whole walk (each burst ends when a
         finite trial resets the counter); the *consecutive* count is
         what is bounded, so the recorded retry ordinals must reach the
         cap exactly once — in the final, fatal burst — and never
         exceed it *)
      let retries =
        List.filter_map
          (function Health.Step_halved { retry; _ } -> Some retry | _ -> None)
          (Health.events health)
      in
      check_bool "halvings recorded" true (retries <> []);
      check_int "cap reached once" 1
        (List.length
           (List.filter (( = ) Adaptive.max_non_finite_retries) retries));
      check_bool "cap never exceeded" true
        (List.for_all (fun r -> r <= Adaptive.max_non_finite_retries) retries)

let test_adaptive_clean_unchanged () =
  (* on a healthy problem the health-instrumented run returns the exact
     same grid and values as the plain one *)
  let sys = Descriptor.scalar ~e:1.0 ~a:(-2.0) ~b:1.0 in
  let src = [| Source.Step { amplitude = 1.0; delay = 0.0 } |] in
  let r1, s1 = Adaptive.solve ~t_end:1.0 sys src in
  let health = Health.create () in
  let r2, s2 = Adaptive.solve ~health ~t_end:1.0 sys src in
  check_int "same accepted steps" s1.Adaptive.accepted s2.Adaptive.accepted;
  close "identical solution" 0.0
    (Mat.max_abs_diff r1.Sim_result.x r2.Sim_result.x);
  check_bool "no halvings recorded" true
    (List.for_all
       (function Health.Step_halved _ -> false | _ -> true)
       (Health.events health))

(* ---------- pivot_tol validation ---------- *)

let test_pivot_tol_validation () =
  let a = Csr.of_dense (Mat.eye 3) in
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "pivot_tol %g rejected" bad)
        true
        (try
           ignore (Slu.factor ~pivot_tol:bad a);
           false
         with Invalid_argument _ -> true))
    [ 0.0; -0.1; 1.5; Float.nan ];
  (* 1.0 = strict partial pivoting is the documented upper edge *)
  ignore (Slu.factor ~pivot_tol:1.0 a)

(* ---------- parser robustness ---------- *)

let check_parse_error text line =
  match Parser.parse_string text with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Parser.Parse_error { line = l; _ } ->
      check_int "error line" line l

let test_parser_duplicate_designator () =
  (* duplicates are rejected case-insensitively (SPICE convention) *)
  check_parse_error "R1 a 0 1k\nr1 b 0 2k\n" 2;
  check_parse_error "V1 a 0 step(1)\nR1 a b 1k\nv1 b 0 step(2)\n" 3

let test_parser_value_error_line () =
  check_parse_error "R1 a 0 1k\nC1 b 0 zap\n" 2;
  check_parse_error "R1 a 0 0\n" 1 (* non-positive value, still line-tagged *)

(* ---------- sim result carries the collector ---------- *)

let test_sim_result_health () =
  let net = Parser.parse_string "V1 in 0 step(1)\nR1 in out 1k\nC1 out 0 1u\n" in
  let mt, srcs = Mna.stamp net in
  let grid = Grid.uniform ~t_end:1e-3 ~m:16 in
  let health = Health.create () in
  let r = Opm.simulate_multi_term ~health ~grid mt srcs in
  check_bool "collector attached" true
    (match Sim_result.health r with Some h -> h == health | None -> false);
  check_bool "report ok" true (contains (Health.to_string health) "status: ok");
  let r2 = Opm.simulate_multi_term ~grid mt srcs in
  check_bool "no collector by default" true (Sim_result.health r2 = None);
  close "health never changes the waveform" 0.0
    (Mat.max_abs_diff r.Sim_result.x r2.Sim_result.x)

(* ---------- checksums ---------- *)

(* The FNV-1a 64-bit hash as it was first written: a [String.iter]
   closure over an [int64 ref]. Every checkpoint checksum and plant
   fingerprint was computed with it, so the allocation-free loop must
   agree with it on every string. *)
let fnv1a64_reference s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let test_fnv1a64_matches_reference () =
  let st = Random.State.make [| 0xf0f; 20261017 |] in
  let strings =
    ""
    :: String.make 1 '\000'
    :: String.init 256 Char.chr
    :: List.init 200 (fun _ ->
           String.init (Random.State.int st 300) (fun _ ->
               Char.chr (Random.State.int st 256)))
  in
  (* the checksum hashes the compact JSON text of its payload *)
  let checksum s = Checkpoint.checksum_of_payload (Opm_obs.Json.String s) in
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "length %d" (String.length s))
        (fnv1a64_reference (Opm_obs.Json.to_string (Opm_obs.Json.String s)))
        (checksum s))
    strings;
  (* a served plant's cache key, pinned *)
  let sys, _ =
    Mna.stamp (Parser.parse_string "V1 in 0 step(1)\nR1 in out 1k\nC1 out 0 1u\n")
  in
  Alcotest.(check string) "plant fingerprint" "b95e54cf96469430"
    (Opm_serve.Protocol.fingerprint ~sys ~t_end:1e-3 ~steps:64 ~window:None
       ~memory_len:None ~basis:`Bpf)

let () =
  Alcotest.run "robust"
    [
      ( "guard",
        [
          Alcotest.test_case "finiteness" `Quick test_guard_finite;
          Alcotest.test_case "first_some/protect" `Quick test_guard_protect;
        ] );
      ( "errors",
        [ Alcotest.test_case "to_string" `Quick test_error_to_string ] );
      ( "cond_est",
        [
          Alcotest.test_case "dense within 10x" `Quick test_cond_est_dense;
          Alcotest.test_case "sparse within 10x" `Quick test_cond_est_sparse;
          Alcotest.test_case "cached" `Quick test_cond_est_cached;
          Alcotest.test_case "transpose solves" `Quick test_solve_transpose;
        ] );
      ( "cascade",
        [
          Alcotest.test_case "singular dense" `Quick test_singular_dense;
          Alcotest.test_case "singular sparse cascade" `Quick
            test_singular_sparse_cascade;
          Alcotest.test_case "singular netlist" `Quick test_singular_netlist;
          Alcotest.test_case "near-singular refinement" `Quick
            test_near_singular_refinement;
          Alcotest.test_case "no-op when well-conditioned" `Quick
            test_noop_on_well_conditioned;
        ] );
      ( "health",
        [
          Alcotest.test_case "report" `Quick test_health_report;
          Alcotest.test_case "sim result carries it" `Quick
            test_sim_result_health;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "non-finite bounded retry" `Quick
            test_adaptive_non_finite;
          Alcotest.test_case "clean run unchanged" `Quick
            test_adaptive_clean_unchanged;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "fnv1a64 matches the reference" `Quick
            test_fnv1a64_matches_reference;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "pivot_tol domain" `Quick test_pivot_tol_validation;
          Alcotest.test_case "duplicate designator" `Quick
            test_parser_duplicate_designator;
          Alcotest.test_case "value error line" `Quick
            test_parser_value_error_line;
        ] );
    ]
