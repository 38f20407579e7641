(* Differential suite for the windowed streaming driver (lib/core/window):
   windowed vs global solves on random passive RLC networks and the
   Table-I fractional line — bit-identical with full memory, since a
   window is a slice of the one column loop — the w = m degenerate case,
   short-memory truncation against the documented mass bound, and the
   factor-cache (α, h) collision regression.

   Random cases are seeded from OPM_PROP_SEED (default 20260806) and
   every failure message carries the replay seed, same protocol as
   test_props.ml. *)

open Opm_numkit
open Opm_basis
open Opm_signal
open Opm_core
open Opm_circuit

let base_seed =
  match Sys.getenv_opt "OPM_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 20260806)
  | None -> 20260806

let prop ~n f () =
  for k = 0 to n - 1 do
    let seed = base_seed + (1013904223 * k) in
    let st = Random.State.make [| 0x9e37; seed |] in
    try f st seed
    with e ->
      Alcotest.failf "case %d failed — replay with OPM_PROP_SEED=%d — %s" k
        seed (Printexc.to_string e)
  done

let check_le msg lhs rhs =
  if not (lhs <= rhs) then Alcotest.failf "%s: %.6g > %.6g" msg lhs rhs

let rel_diff a b =
  let scale = Float.max (Mat.norm_inf b) 1e-30 in
  Mat.max_abs_diff a b /. scale

(* bit identity of two coefficient matrices *)
let check_bits msg a b =
  let rows, cols = Mat.dims b in
  if Mat.dims a <> (rows, cols) then Alcotest.failf "%s: shapes differ" msg;
  for r = 0 to rows - 1 do
    for i = 0 to cols - 1 do
      if
        not
          (Int64.equal (Int64.bits_of_float (Mat.get a r i))
             (Int64.bits_of_float (Mat.get b r i)))
      then
        Alcotest.failf "%s: entry (%d, %d) is %h, global %h" msg r i (Mat.get a r i)
          (Mat.get b r i)
    done
  done

let random_input st =
  Source.Sine
    {
      amplitude = 1.0;
      freq_hz = 5e4 +. Random.State.float st 1.5e5;
      phase = Random.State.float st 6.28;
      offset = 0.5;
    }

let random_system st seed =
  let nodes = 2 + Random.State.int st 4 in
  let net = Generators.random_rlc ~seed ~nodes ~input:(random_input st) () in
  Mna.stamp_linear net

(* ---------- integer order: windowed ≡ global ---------- *)

let prop_integer_windowed_matches_global =
  prop ~n:4 (fun st seed ->
      let sys, srcs = random_system st seed in
      let m = 128 in
      let w = m / 8 in
      let grid = Grid.uniform ~t_end:2e-5 ~m in
      let global = Opm.simulate_linear ~grid sys srcs in
      let windowed = Opm.simulate_linear ~window:w ~grid sys srcs in
      check_bits
        (Printf.sprintf "windowed (w = m/8) vs global, seed %d" seed)
        windowed.Sim_result.x global.Sim_result.x)

(* the general (Toeplitz-history) path must agree too: force it through
   a multi-term wrapper of the same order-1 system with full memory *)
let prop_integer_general_path_matches_global =
  prop ~n:3 (fun st seed ->
      let sys, srcs = random_system st seed in
      let mt = Multi_term.of_linear sys in
      let mt =
        (* a second copy of the α = 1 term with the coefficient split in
           half is the same equation but takes the multi-term path *)
        match mt.Multi_term.terms with
        | [ { Multi_term.coeff; alpha } ] ->
            let half = Opm_sparse.Csr.scale 0.5 coeff in
            {
              mt with
              Multi_term.terms =
                [
                  { Multi_term.coeff = half; alpha };
                  { Multi_term.coeff = half; alpha };
                ];
            }
        | _ -> mt
      in
      let m = 96 in
      let grid = Grid.uniform ~t_end:2e-5 ~m in
      let global = Opm.simulate_multi_term ~grid mt srcs in
      let windowed = Opm.simulate_multi_term ~window:(m / 8) ~grid mt srcs in
      check_bits
        (Printf.sprintf "multi-term windowed vs global, seed %d" seed)
        windowed.Sim_result.x global.Sim_result.x)

(* ---------- fractional orders ---------- *)

let fractional_case ~alpha st seed =
  let sys, srcs = random_system st seed in
  let m = 128 in
  let w = m / 8 in
  let grid = Grid.uniform ~t_end:2e-5 ~m in
  let global = Opm.simulate_fractional ~grid ~alpha sys srcs in
  let windowed = Opm.simulate_fractional ~window:w ~grid ~alpha sys srcs in
  (* full memory: the windowed run is the global column loop *)
  check_bits
    (Printf.sprintf "α = %g full-memory windowed vs global, seed %d" alpha
       seed)
    windowed.Sim_result.x global.Sim_result.x;
  (* short memory: relative error below the documented truncation mass
     (with a unit safety factor — the mass over-counts because the
     dropped history columns are multiplied by decaying ρ weights *and*
     the bounded solution) *)
  let memory_len = m / 4 in
  let truncated =
    Opm.simulate_fractional ~window:w ~memory_len ~grid ~alpha sys srcs
  in
  let mass = Window.truncation_mass ~alpha ~lags:(m - 1) ~memory_len in
  if mass <= 0.0 then
    Alcotest.failf "truncation mass should be positive for α = %g" alpha;
  check_le
    (Printf.sprintf "α = %g short-memory error vs mass bound, seed %d" alpha
       seed)
    (rel_diff truncated.Sim_result.x global.Sim_result.x)
    mass

let prop_fractional_05 = prop ~n:3 (fractional_case ~alpha:0.5)
let prop_fractional_15 = prop ~n:3 (fractional_case ~alpha:1.5)

(* integer orders carry their history in the exact banded recurrence,
   which no memory cutoff touches, so even memory_len = 0 leaves them
   bit for bit (the general path is forced via the split-term trick
   above) *)
let prop_integer_exact_under_truncation =
  prop ~n:2 (fun st seed ->
      let sys, srcs = random_system st seed in
      let mt = Multi_term.of_linear sys in
      let mt =
        match mt.Multi_term.terms with
        | [ { Multi_term.coeff; alpha } ] ->
            let half = Opm_sparse.Csr.scale 0.5 coeff in
            {
              mt with
              Multi_term.terms =
                [
                  { Multi_term.coeff = half; alpha };
                  { Multi_term.coeff = half; alpha };
                ];
            }
        | _ -> mt
      in
      let m = 96 in
      let grid = Grid.uniform ~t_end:2e-5 ~m in
      let global = Opm.simulate_multi_term ~grid mt srcs in
      let truncated =
        Opm.simulate_multi_term ~window:(m / 8) ~memory_len:0 ~grid mt srcs
      in
      check_bits
        (Printf.sprintf "integer order, memory_len = 0, seed %d" seed)
        truncated.Sim_result.x global.Sim_result.x)

(* Table-I line (n = 7, α = 0.5): the acceptance workload *)
let test_table1_windowed () =
  let sys = Opm_circuit.Tline.model () in
  let srcs = Opm_circuit.Tline.inputs () in
  let alpha = Opm_circuit.Tline.alpha in
  let m = 128 in
  let grid = Grid.uniform ~t_end:Opm_circuit.Tline.t_end ~m in
  let global = Opm.simulate_fractional ~grid ~alpha sys srcs in
  let windowed =
    Opm.simulate_fractional ~window:(m / 8) ~grid ~alpha sys srcs
  in
  check_bits "table-I windowed (w = m/8) vs global" windowed.Sim_result.x
    global.Sim_result.x

(* An RC–RL ladder driven by a voltage source: the source node, the
   source current and the nodes between an inductor and a resistor
   carry no derivative, so E is singular (an MNA DAE) *)
let dae_ladder () =
  Mna.stamp_linear
    (Parser.parse_string
       "V1 in 0 sin(0.5 1 1e5 0.3)\n\
        R1 in n1 1k\n\
        C1 n1 0 1n\n\
        L1 n1 n2 1m\n\
        R2 n2 0 2k\n\
        R3 n2 n3 1k\n\
        C2 n3 0 2n\n\
        L2 n3 n4 0.5m\n\
        R4 n4 0 1k\n")

(* order-1 windows on a singular E, from a zero and a nonzero start:
   every width, down to one column, matches the global solve *)
let test_order1_dae_windowed () =
  let sys, srcs = dae_ladder () in
  let m = 128 in
  let grid = Grid.uniform ~t_end:2e-5 ~m in
  let n = Descriptor.order sys in
  List.iter
    (fun x0 ->
      let global = Opm.simulate_linear ?x0 ~grid sys srcs in
      List.iter
        (fun w ->
          check_bits
            (Printf.sprintf "DAE ladder, w = %d%s" w
               (if x0 = None then "" else ", x0"))
            (Opm.simulate_linear ?x0 ~window:w ~grid sys srcs).Sim_result.x
            global.Sim_result.x)
        [ 1; 7; 16 ])
    [ None; Some (Array.init n (fun i -> 0.05 *. float_of_int (i + 1))) ]

(* ---------- degenerate and boundary shapes ---------- *)

let test_w_eq_m_is_global () =
  let st = Random.State.make [| 0x9e37; base_seed |] in
  let sys, srcs = random_system st base_seed in
  let m = 64 in
  let grid = Grid.uniform ~t_end:2e-5 ~m in
  let global = Opm.simulate_linear ~grid sys srcs in
  let windowed = Opm.simulate_linear ~window:m ~grid sys srcs in
  (* w ≥ m must not merely be close: Opm routes it to the very same
     global code path, so the result is bit-identical *)
  if Mat.max_abs_diff windowed.Sim_result.x global.Sim_result.x <> 0.0 then
    Alcotest.fail "w = m must be bit-identical to the global solve"

let test_short_last_window () =
  let st = Random.State.make [| 0x9e37; base_seed + 7 |] in
  let sys, srcs = random_system st (base_seed + 7) in
  let m = 50 and w = 8 in
  (* 50 = 6 full windows + one of 2 columns *)
  let grid = Grid.uniform ~t_end:2e-5 ~m in
  let global = Opm.simulate_linear ~grid sys srcs in
  let windowed = Opm.simulate_linear ~window:w ~grid sys srcs in
  check_bits "short last window (m = 50, w = 8)" windowed.Sim_result.x
    global.Sim_result.x

let test_windowed_with_x0 () =
  let st = Random.State.make [| 0x9e37; base_seed + 13 |] in
  let sys, srcs = random_system st (base_seed + 13) in
  let n = Descriptor.order sys in
  let x0 = Array.init n (fun i -> 0.1 *. float_of_int (i + 1)) in
  let m = 64 in
  let grid = Grid.uniform ~t_end:2e-5 ~m in
  let global = Opm.simulate_linear ~x0 ~grid sys srcs in
  let windowed = Opm.simulate_linear ~x0 ~window:(m / 8) ~grid sys srcs in
  check_bits "windowed with x0" windowed.Sim_result.x global.Sim_result.x

let test_invalid_args () =
  let st = Random.State.make [| 0x9e37; base_seed |] in
  let sys, srcs = random_system st base_seed in
  let grid = Grid.uniform ~t_end:2e-5 ~m:16 in
  Alcotest.check_raises "window = 0 rejected"
    (Invalid_argument "Opm: window width must be >= 1") (fun () ->
      ignore (Opm.simulate_linear ~window:0 ~grid sys srcs));
  let adaptive = Grid.geometric ~t_end:2e-5 ~m:16 ~ratio:1.3 in
  (try
     ignore (Opm.simulate_linear ~window:4 ~grid:adaptive sys srcs);
     Alcotest.fail "adaptive grid must be rejected by the windowed driver"
   with Invalid_argument _ -> ())

(* ---------- streaming stats, metrics, callbacks ---------- *)

(* the windowed driver on the banded history of [mt] over a uniform
   [grid], streaming the forcing matrix [bu] and collecting the columns *)
let window_run ?on_window ~w ~grid (mt : Multi_term.t) bu =
  let m = Grid.size grid in
  let pencil =
    Engine.pencil `Auto
      (List.map (fun { Multi_term.coeff; _ } -> coeff) mt.Multi_term.terms
      @ [ mt.Multi_term.a ])
  in
  let history =
    Engine.toeplitz
      ~orders:(List.map (fun { Multi_term.alpha; _ } -> alpha) mt.Multi_term.terms)
      ~step:(Grid.t_end grid /. float_of_int m)
      m
  in
  let x = Mat.zeros (Multi_term.order mt) m in
  let stats =
    Window.run ?on_window ~window:w Engine.default pencil history
      ~bu:(fun i -> Mat.col bu i)
      ~emit:(fun i xi -> Mat.set_col x i xi)
  in
  (x, stats)

let test_window_stats_and_callback () =
  let st = Random.State.make [| 0x9e37; base_seed + 21 |] in
  let sys, srcs = random_system st (base_seed + 21) in
  let mt = Multi_term.of_fractional ~alpha:0.5 sys in
  let m = 64 and w = 8 in
  let grid = Grid.uniform ~t_end:2e-5 ~m in
  let bu = Mat.mul mt.Multi_term.b (Opm.input_coefficients ~grid srcs) in
  let seen = ref [] in
  let x, stats =
    window_run ~w ~grid mt bu
      ~on_window:(fun ~index ~start blk ->
        seen := (index, start, snd (Mat.dims blk)) :: !seen)
  in
  Alcotest.(check int) "windows" (m / w) stats.Window.windows;
  Alcotest.(check int) "width" w stats.Window.width;
  Alcotest.(check int) "full memory by default" m stats.Window.memory_len;
  (* one pencil on a uniform grid and one column loop: a single
     factorisation, every column served by the engine's per-run memo *)
  Alcotest.(check int) "one factorisation" 1 stats.Window.factor_misses;
  Alcotest.(check int) "callback per window" (m / w) (List.length !seen);
  List.iter
    (fun (index, start, cols) ->
      Alcotest.(check int) "start = index·w" (index * w) start;
      Alcotest.(check int) "block width" w cols)
    !seen;
  Alcotest.(check (pair int int)) "assembled dims" (Multi_term.order mt, m)
    (Mat.dims x)

(* a compiled model prefactors its block, so the one column loop of a
   windowed query is served from the cache: one hit per query *)
let test_factor_reuse_metric () =
  let st = Random.State.make [| 0x9e37; base_seed + 34 |] in
  let sys, srcs = random_system st (base_seed + 34) in
  let m = 64 and w = 8 in
  let grid = Grid.uniform ~t_end:2e-5 ~m in
  let was_enabled = Opm_obs.Metrics.enabled () in
  Opm_obs.Metrics.set_enabled true;
  Opm_obs.Metrics.reset ();
  Fun.protect
    ~finally:(fun () -> Opm_obs.Metrics.set_enabled was_enabled)
    (fun () ->
      ignore (Opm.simulate_fractional ~window:w ~grid ~alpha:0.5 sys srcs);
      let reuse =
        Opm_obs.Metrics.counter_value
          (Opm_obs.Metrics.counter "window.factor_reuse")
      in
      let windows =
        Opm_obs.Metrics.counter_value (Opm_obs.Metrics.counter "window.count")
      in
      Alcotest.(check int) "window.count" (m / w) windows;
      Alcotest.(check int) "window.factor_reuse: the prefactored block" 1 reuse)

(* ---------- factor-cache (α, h) collision regression ---------- *)

(* At h = 2 the diagonal coefficient (2/h)^α = 1 for every α, so a
   pencil cache keyed only on diagonal coefficients would serve the
   α = 0.5 block to the α = 1.5 solve on the same pencil. The (α, h)
   key discipline must keep them apart (2 factorisations) and both
   results equal their fresh-pencil references bit for bit. *)
let test_factor_cache_alpha_h_regression () =
  let st = Random.State.make [| 0x9e37; base_seed + 55 |] in
  let sys, srcs = random_system st (base_seed + 55) in
  let n = Descriptor.order sys in
  let m = 16 in
  let t_end = 2.0 *. float_of_int m in
  (* h = t_end / m = 2 exactly *)
  let grid = Grid.uniform ~t_end ~m in
  let mt alpha = Multi_term.of_fractional ~alpha sys in
  let bu alpha =
    Mat.mul (mt alpha).Multi_term.b (Opm.input_coefficients ~grid srcs)
  in
  (* E and A do not depend on α: one pencil serves both orders *)
  let fresh_pencil () =
    let mta = mt 0.5 in
    Engine.pencil `Dense
      (List.map (fun { Multi_term.coeff; _ } -> coeff) mta.Multi_term.terms
      @ [ mta.Multi_term.a ])
  in
  let solve pencil alpha =
    Engine.solve
      (Engine.prepare Engine.default pencil
         (Engine.toeplitz ~orders:[ alpha ] ~step:2.0 m))
      (bu alpha)
  in
  let shared = fresh_pencil () in
  let x05 = solve shared 0.5 in
  let x15 = solve shared 1.5 in
  Alcotest.(check int)
    "distinct α on the h = 2 grid must not share a factorisation" 2
    (snd (Engine.pencil_lookups shared));
  ignore n;
  check_bits "α = 0.5 shared-pencil result" x05 (solve (fresh_pencil ()) 0.5);
  check_bits "α = 1.5 shared-pencil result" x15 (solve (fresh_pencil ()) 1.5)

(* A ladder whose shunts alternate C and CPE (α = 0.5): the fractional
   term reads only the two CPE nodes of the six states, so the
   convolver keeps those two rows. Windows of 128 columns on a
   1024-column horizon cross several FFT block levels. *)
let test_fft_handoff_partial_support () =
  let mt, srcs =
    Mna.stamp
      (Parser.parse_string
         "V1 in 0 sin(0.2 1 1e5 0.3)\n\
          R1 in n1 100\n\
          C1 n1 0 1n\n\
          R2 n1 n2 120\n\
          P2 n2 0 q=1u alpha=0.5\n\
          R3 n2 n3 80\n\
          C3 n3 0 2n\n\
          R4 n3 n4 150\n\
          P4 n4 0 q=0.5u alpha=0.5\n")
  in
  let grid = Grid.uniform ~t_end:2e-5 ~m:1024 in
  let global = Opm.simulate_multi_term ~grid mt srcs in
  let windowed = Opm.simulate_multi_term ~window:128 ~grid mt srcs in
  check_bits "C/CPE ladder, convolver on the CPE rows, windowed vs global"
    windowed.Sim_result.x global.Sim_result.x

let test_truncation_mass () =
  (* sanity of the bound itself: monotone in memory_len, 0 when nothing
     is truncated *)
  let mass k = Window.truncation_mass ~alpha:0.5 ~lags:127 ~memory_len:k in
  Alcotest.(check (float 0.0)) "no truncation" 0.0 (mass 127);
  check_le "mass decreases with memory" (mass 64) (mass 16);
  check_le "mass positive" 1e-12 (mass 16);
  check_le "mass ≤ 1" (mass 1) 1.0

let () =
  Alcotest.run "window"
    [
      ( "differential",
        [
          Alcotest.test_case "integer: windowed vs global (w = m/8)" `Quick
            prop_integer_windowed_matches_global;
          Alcotest.test_case "integer: general path windowed vs global" `Quick
            prop_integer_general_path_matches_global;
          Alcotest.test_case "fractional α = 0.5" `Quick prop_fractional_05;
          Alcotest.test_case "fractional α = 1.5" `Quick prop_fractional_15;
          Alcotest.test_case "integer order exact at memory_len = 0" `Quick
            prop_integer_exact_under_truncation;
          Alcotest.test_case "table-I line windowed" `Quick
            test_table1_windowed;
          Alcotest.test_case "order-1 DAE ladder windowed vs global" `Quick
            test_order1_dae_windowed;
          Alcotest.test_case "FFT handoff on the support rows" `Quick
            test_fft_handoff_partial_support;
        ] );
      ( "boundaries",
        [
          Alcotest.test_case "w = m is exactly the global path" `Quick
            test_w_eq_m_is_global;
          Alcotest.test_case "short last window" `Quick test_short_last_window;
          Alcotest.test_case "windowed with x0" `Quick test_windowed_with_x0;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "stats + on_window" `Quick
            test_window_stats_and_callback;
          Alcotest.test_case "factor_reuse metric" `Quick
            test_factor_reuse_metric;
        ] );
      ( "factor-cache",
        [
          Alcotest.test_case "(α, h) collision regression" `Quick
            test_factor_cache_alpha_h_regression;
          Alcotest.test_case "truncation mass bound" `Quick
            test_truncation_mass;
        ] );
    ]
