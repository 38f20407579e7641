(* Tests for the domain pool: chunked scheduling, exception
   propagation, and the bit-identical serial/parallel contract of the
   analyses wired onto it. *)

open Opm_numkit
open Opm_basis
open Opm_circuit
open Opm_core
open Opm_analysis
module Pool = Opm_parallel.Pool

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- pool primitives ---------- *)

let test_pool_map () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          check_int "domains" domains (Pool.domains pool);
          let xs = Array.init 100 Fun.id in
          let squares = Pool.map pool (fun x -> x * x) xs in
          Alcotest.(check (array int))
            (Printf.sprintf "map, %d domains" domains)
            (Array.map (fun x -> x * x) xs)
            squares;
          Alcotest.(check (array int)) "empty" [||] (Pool.map pool (fun x -> x) [||])))
    [ 1; 2; 3 ]

let test_pool_parallel_for () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let n = 1000 in
          let out = Array.make n (-1) in
          Pool.parallel_for pool ~n (fun i -> out.(i) <- 2 * i);
          check_bool
            (Printf.sprintf "every index visited once, %d domains" domains)
            true
            (Array.for_all Fun.id (Array.mapi (fun i v -> v = 2 * i) out));
          Pool.parallel_for pool ~n:0 (fun _ -> assert false)))
    [ 1; 2; 4 ]

let test_pool_init_mapi () =
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check (array int))
        "init" (Array.init 37 (fun i -> 3 * i))
        (Pool.init pool 37 (fun i -> 3 * i));
      Alcotest.(check (array int))
        "mapi"
        (Array.mapi (fun i x -> i - x) (Array.make 37 5))
        (Pool.mapi pool (fun i x -> i - x) (Array.make 37 5)))

exception Boom of int

let test_pool_exception () =
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          check_bool
            (Printf.sprintf "exception reaches caller, %d domains" domains)
            true
            (try
               Pool.parallel_for pool ~n:100 (fun i ->
                   if i = 57 then raise (Boom i));
               false
             with Boom 57 -> true);
          (* the pool survives a failed job *)
          let xs = Pool.init pool 10 Fun.id in
          Alcotest.(check (array int)) "pool reusable after failure"
            (Array.init 10 Fun.id) xs))
    [ 1; 2; 4 ]

let test_pool_nested () =
  (* a nested parallel call from inside a job must run serially rather
     than deadlock on the busy pool *)
  Pool.with_pool ~domains:2 (fun pool ->
      let out = Array.make 16 0.0 in
      Pool.parallel_for pool ~n:16 (fun i ->
          let inner = Pool.map pool (fun x -> float_of_int (x + i)) [| 1; 2; 3 |] in
          out.(i) <- Array.fold_left ( +. ) 0.0 inner);
      Array.iteri
        (fun i v -> close (Printf.sprintf "nested %d" i) (float_of_int ((3 * i) + 6)) v)
        out)

let test_default_domains_override () =
  let saved = Pool.default_domains () in
  Pool.set_default_domains 3;
  check_int "override" 3 (Pool.default_domains ());
  Pool.with_pool (fun pool -> check_int "pool picks override up" 3 (Pool.domains pool));
  Pool.set_default_domains saved

(* ---------- bit-identical serial vs parallel analyses ---------- *)

let ladder_system () =
  let input = Opm_signal.Source.Step { amplitude = 1.0; delay = 0.0 } in
  let net = Generators.rc_ladder ~sections:6 ~input () in
  Mna.stamp_linear ~outputs:[ Mna.Node_voltage "n6" ] net

let test_ac_sweep_identical () =
  let sys, _ = ladder_system () in
  let sweep pool =
    Ac.sweep ~pool ~omega_min:1e2 ~omega_max:1e8 ~points:33 sys
  in
  let serial = Pool.with_pool ~domains:1 sweep in
  Pool.with_pool ~domains:4 (fun pool ->
      let parallel = sweep pool in
      List.iter2
        (fun p q ->
          close "omega" p.Ac.omega q.Ac.omega ~tol:0.0;
          close "response bit-identical" 0.0
            (Cmat.max_abs_diff p.Ac.response q.Ac.response)
            ~tol:0.0)
        serial parallel)

let test_param_sweep_identical () =
  let input = Opm_signal.Source.Step { amplitude = 1.0; delay = 0.0 } in
  let evaluate r =
    let net = Generators.rc_ladder ~r ~sections:4 ~input () in
    let sys, srcs = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "n4" ] net in
    let grid = Grid.uniform ~t_end:2e-5 ~m:64 in
    let res = Opm.simulate_linear ~grid sys srcs in
    (Sim_result.output res 0).(63)
  in
  let values = Array.init 12 (fun k -> 500.0 +. (250.0 *. float_of_int k)) in
  let serial = Sweep.run evaluate values in
  Pool.with_pool ~domains:4 (fun pool ->
      let parallel = Sweep.run ~pool evaluate values in
      check_bool "param sweep bit-identical" true
        (Array.for_all2
           (fun (v, m) (v', m') -> v = v' && m = m')
           serial parallel))

let test_freq_domain_identical () =
  let sys, srcs = ladder_system () in
  let solve pool =
    Opm_transient.Freq_domain.solve ~pool ~n_samples:64 ~alpha:1.0 ~t_end:2e-5
      sys srcs
  in
  let serial = Pool.with_pool ~domains:1 solve in
  Pool.with_pool ~domains:4 (fun pool ->
      let parallel = solve pool in
      check_bool "fft transient bit-identical" true
        (Opm_signal.Waveform.channel serial 0
        = Opm_signal.Waveform.channel parallel 0))

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          t "map" test_pool_map;
          t "parallel_for" test_pool_parallel_for;
          t "init + mapi" test_pool_init_mapi;
          t "exception propagation" test_pool_exception;
          t "nested parallelism" test_pool_nested;
          t "default override" test_default_domains_override;
        ] );
      ( "determinism",
        [
          t "ac sweep" test_ac_sweep_identical;
          t "parameter sweep" test_param_sweep_identical;
          t "freq-domain transient" test_freq_domain_identical;
        ] );
    ]
