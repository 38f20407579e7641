(* Tests for the circuit substrate: netlist, parser, MNA/NA stamping and
   the workload generators. *)

open Opm_numkit
open Opm_sparse
open Opm_basis
open Opm_signal
open Opm_core
open Opm_circuit

let close ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cardinality net = List.length (Netlist.instances net)

let step = Source.Step { amplitude = 1.0; delay = 0.0 }

(* ---------- Netlist ---------- *)

let test_netlist_nodes () =
  let net =
    Netlist.of_list
      [ Netlist.r "R1" "a" "b" 10.0; Netlist.c "C1" "b" "0" 1e-6 ]
  in
  check_int "two non-ground nodes" 2 (Netlist.node_count net);
  check_bool "ground not a node" true (Netlist.node_index net "0" = None);
  check_bool "a is node 0" true (Netlist.node_index net "a" = Some 0);
  check_bool "b is node 1" true (Netlist.node_index net "b" = Some 1)

let test_netlist_ground_aliases () =
  check_bool "0" true (Netlist.is_ground "0");
  check_bool "gnd" true (Netlist.is_ground "gnd");
  check_bool "GND" true (Netlist.is_ground "GND");
  check_bool "vdd not ground" false (Netlist.is_ground "vdd")

let test_netlist_duplicate_rejected () =
  let net = Netlist.create () in
  Netlist.add net (Netlist.r "R1" "a" "0" 1.0);
  check_bool "duplicate designator" true
    (try
       Netlist.add net (Netlist.r "R1" "b" "0" 2.0);
       false
     with Invalid_argument _ -> true)

let test_netlist_invalid_values () =
  check_bool "negative R" true
    (try
       ignore (Netlist.of_list [ Netlist.r "R1" "a" "0" (-1.0) ]);
       false
     with Invalid_argument _ -> true);
  check_bool "zero C" true
    (try
       ignore (Netlist.of_list [ Netlist.c "C1" "a" "0" 0.0 ]);
       false
     with Invalid_argument _ -> true);
  check_bool "ground-to-ground" true
    (try
       ignore (Netlist.of_list [ Netlist.r "R1" "0" "gnd" 1.0 ]);
       false
     with Invalid_argument _ -> true)

let test_netlist_find () =
  let net = Netlist.of_list [ Netlist.l "L1" "a" "0" 1e-9 ] in
  check_bool "found" true (Netlist.find net "L1" <> None);
  check_bool "missing" true (Netlist.find net "L2" = None)

(* ---------- Parser ---------- *)

let test_parse_value_suffixes () =
  close "k" 1000.0 (Parser.parse_value "1k");
  close "meg" 10e6 (Parser.parse_value "10meg");
  close "u" 2.2e-6 (Parser.parse_value "2.2u") ~tol:1e-18;
  close "n" 5e-9 (Parser.parse_value "5n") ~tol:1e-20;
  close "p" 3e-12 (Parser.parse_value "3p") ~tol:1e-22;
  close "f" 4e-15 (Parser.parse_value "4F") ~tol:1e-25;
  close "m" 7e-3 (Parser.parse_value "7m") ~tol:1e-14;
  close "g" 2e9 (Parser.parse_value "2G");
  close "t" 1e12 (Parser.parse_value "1T");
  close "plain" 42.5 (Parser.parse_value "42.5");
  close "scientific" 1.5e-7 (Parser.parse_value "1.5e-7") ~tol:1e-18

let test_parse_value_malformed () =
  check_bool "garbage" true
    (try
       ignore (Parser.parse_value "abc");
       false
     with Failure _ -> true)

let test_parse_elements () =
  let net =
    Parser.parse_string
      "* comment line\n\
       R1 in out 1k   ; trailing comment\n\
       C1 out 0 1u\n\
       L1 out tail 10n\n\
       P1 tail 0 q=1u alpha=0.5\n\
       V1 in 0 step(1)\n\
       I1 out 0 dc 1m\n\
       .end\n"
  in
  check_int "six elements" 6 (cardinality net);
  (match Netlist.find net "P1" with
  | Some { Netlist.element = Netlist.Cpe { q; alpha }; _ } ->
      close "cpe q" 1e-6 q ~tol:1e-16;
      close "cpe alpha" 0.5 alpha
  | _ -> Alcotest.fail "P1 not parsed as CPE");
  match Netlist.find net "R1" with
  | Some { Netlist.element = Netlist.Resistor r; _ } -> close "R value" 1000.0 r
  | _ -> Alcotest.fail "R1 not parsed"

let test_parse_sources () =
  let net =
    Parser.parse_string
      "V1 a 0 pulse(0 5 1n 2n 10n)\n\
       V2 b 0 sin(0.5 2 1meg 0.1)\n\
       V3 c 0 exp(3 1u)\n\
       V4 d 0 pwl(0 0, 1n 1, 2n 0)\n\
       V5 e 0 ramp(2 1n)\n\
       V6 f 0 2.5\n"
  in
  let src name =
    match Netlist.find net name with
    | Some { Netlist.element = Netlist.Voltage_source s; _ } -> s
    | _ -> Alcotest.fail (name ^ " missing")
  in
  (match src "V1" with
  | Source.Pulse { low; high; delay; width; period } ->
      close "low" 0.0 low;
      close "high" 5.0 high;
      close "delay" 1e-9 delay ~tol:1e-20;
      close "width" 2e-9 width ~tol:1e-20;
      close "period" 10e-9 period ~tol:1e-20
  | _ -> Alcotest.fail "V1 not a pulse");
  (match src "V2" with
  | Source.Sine { amplitude; freq_hz; phase; offset } ->
      close "amp" 2.0 amplitude;
      close "freq" 1e6 freq_hz;
      close "phase" 0.1 phase;
      close "offset" 0.5 offset
  | _ -> Alcotest.fail "V2 not a sine");
  (match src "V4" with
  | Source.Pwl points -> check_int "pwl points" 3 (List.length points)
  | _ -> Alcotest.fail "V4 not pwl");
  match src "V6" with
  | Source.Dc v -> close "bare dc" 2.5 v
  | _ -> Alcotest.fail "V6 not dc"

let test_parse_pulse_oneshot () =
  let net = Parser.parse_string "I1 a 0 pulse(0 1 0 5n 0)\n" in
  match Netlist.find net "I1" with
  | Some { Netlist.element = Netlist.Current_source (Source.Pulse { period; _ }); _ } ->
      check_bool "period 0 becomes one-shot" true (period = Float.infinity)
  | _ -> Alcotest.fail "I1 missing"

let test_parse_errors_carry_line_numbers () =
  let check_line text expected_line =
    try
      ignore (Parser.parse_string text);
      Alcotest.fail "expected Parse_error"
    with Parser.Parse_error { line; _ } ->
      check_int "line number" expected_line line
  in
  check_line "R1 a 0 1k\nC1 b 0\n" 2;
  check_line "Z1 a 0 1k\n" 1;
  check_line "R1 a 0 1k\n\nV1 c 0 wobble(3)\n" 3;
  check_line "P1 a 0 q=1 beta=2\n" 1

let test_parse_file_roundtrip () =
  let path = Filename.temp_file "opm_test" ".sp" in
  let oc = open_out path in
  output_string oc "R1 a 0 2k\nC1 a 0 1n\n";
  close_out oc;
  let net = Parser.parse_file path in
  Sys.remove path;
  check_int "elements" 2 (cardinality net)

(* ---------- MNA stamping ---------- *)

let test_mna_rc_matrices () =
  (* V—R—C: states (v_in, v_out, i_V); checked entry by entry *)
  let net =
    Parser.parse_string "V1 in 0 step(1)\nR1 in out 1k\nC1 out 0 1u\n"
  in
  let sys, srcs = Mna.stamp_linear net in
  check_int "3 states" 3 (Descriptor.order sys);
  check_int "1 source" 1 (Array.length srcs);
  let e = Descriptor.e_dense sys and a = Descriptor.a_dense sys in
  let g = 1e-3 in
  (* node order: in = 0, out = 1; branch current row = 2 *)
  close "E[out][out] = C" 1e-6 (Mat.get e 1 1) ~tol:1e-16;
  close "E elsewhere" 0.0 (Mat.get e 0 0);
  close "A[in][in] = −G" (-.g) (Mat.get a 0 0) ~tol:1e-12;
  close "A[in][out] = G" g (Mat.get a 0 1) ~tol:1e-12;
  close "A[out][out] = −G" (-.g) (Mat.get a 1 1) ~tol:1e-12;
  (* voltage source row and column *)
  close "A[vrow][in]" 1.0 (Mat.get a 2 0);
  close "A[in][vrow]" (-1.0) (Mat.get a 0 2);
  close "B[vrow][0]" (-1.0) (Mat.get sys.Descriptor.b 2 0)

let test_mna_symmetric_rc_stamps () =
  (* for R/C-only circuits (no branch states) E and the G part of A are
     symmetric *)
  let net =
    Netlist.of_list
      [
        Netlist.i "I1" "a" "0" step;
        Netlist.r "R1" "a" "b" 2.0;
        Netlist.r "R2" "b" "0" 3.0;
        Netlist.c "C1" "a" "0" 1.0;
        Netlist.c "C2" "a" "b" 2.0;
      ]
  in
  let sys, _ = Mna.stamp_linear net in
  let e = Descriptor.e_dense sys and a = Descriptor.a_dense sys in
  close "E symmetric" 0.0 (Mat.max_abs_diff e (Mat.transpose e));
  close "A symmetric" 0.0 (Mat.max_abs_diff a (Mat.transpose a));
  (* coupling capacitor off-diagonal *)
  close "E[a][b] = −2" (-2.0) (Mat.get e 0 1)

let test_mna_inductor_branch () =
  let net =
    Netlist.of_list
      [ Netlist.i "I1" "a" "0" step; Netlist.l "L1" "a" "0" 2e-3 ]
  in
  let sys, _ = Mna.stamp_linear net in
  check_int "node + branch" 2 (Descriptor.order sys);
  let e = Descriptor.e_dense sys and a = Descriptor.a_dense sys in
  close "E[branch][branch] = L" 2e-3 (Mat.get e 1 1) ~tol:1e-12;
  close "A[branch][node] = 1" 1.0 (Mat.get a 1 0);
  close "A[node][branch] = −1" (-1.0) (Mat.get a 0 1)

let test_mna_state_names () =
  let net =
    Parser.parse_string "V1 in 0 step(1)\nL1 in out 1n\nR1 out 0 50\n"
  in
  let names = (fst (Mna.stamp net)).Multi_term.state_names in
  check_bool "node name" true (Array.exists (( = ) "v(out)") names);
  check_bool "inductor current" true (Array.exists (( = ) "i(L1)") names);
  check_bool "source current" true (Array.exists (( = ) "i(V1)") names)

let test_mna_probe_errors () =
  let net = Parser.parse_string "R1 a 0 1k\nV1 a 0 dc 1\n" in
  check_bool "unknown node" true
    (try
       ignore (Mna.stamp ~outputs:[ Mna.Node_voltage "zz" ] net);
       false
     with Invalid_argument _ -> true);
  check_bool "R has no current state" true
    (try
       ignore (Mna.stamp ~outputs:[ Mna.Branch_current "R1" ] net);
       false
     with Invalid_argument _ -> true)

let test_mna_cpe_grouping () =
  (* two CPEs with equal α share one term; different α makes two *)
  let net1 =
    Netlist.of_list
      [
        Netlist.i "I1" "a" "0" step;
        Netlist.cpe "P1" "a" "0" ~q:1.0 ~alpha:0.5;
        Netlist.cpe "P2" "a" "b" ~q:2.0 ~alpha:0.5;
        Netlist.r "R1" "b" "0" 1.0;
      ]
  in
  let mt1, _ = Mna.stamp net1 in
  check_int "E1 + one Eα" 2 (List.length mt1.Multi_term.terms);
  let net2 =
    Netlist.of_list
      [
        Netlist.i "I1" "a" "0" step;
        Netlist.cpe "P1" "a" "0" ~q:1.0 ~alpha:0.5;
        Netlist.cpe "P2" "a" "b" ~q:2.0 ~alpha:0.7;
        Netlist.r "R1" "b" "0" 1.0;
      ]
  in
  let mt2, _ = Mna.stamp net2 in
  check_int "E1 + two Eα" 3 (List.length mt2.Multi_term.terms)

let test_mna_stamp_linear_rejects_cpe () =
  let net =
    Netlist.of_list
      [ Netlist.i "I1" "a" "0" step; Netlist.cpe "P1" "a" "0" ~q:1.0 ~alpha:0.5 ]
  in
  check_bool "raises" true
    (try
       ignore (Mna.stamp_linear net);
       false
     with Invalid_argument _ -> true)

let test_mna_stamp_fractional_shapes () =
  let frac =
    Netlist.of_list
      [
        Netlist.v "V1" "in" "0" step;
        Netlist.r "R1" "in" "out" 1e3;
        Netlist.cpe "P1" "out" "0" ~q:1e-6 ~alpha:0.5;
      ]
  in
  (match Mna.stamp_fractional frac with
  | Some (_, alpha, _) -> close "alpha" 0.5 alpha
  | None -> Alcotest.fail "expected fractional shape");
  (* a capacitor spoils the single-order shape *)
  let mixed =
    Netlist.of_list
      [
        Netlist.v "V1" "in" "0" step;
        Netlist.r "R1" "in" "out" 1e3;
        Netlist.cpe "P1" "out" "0" ~q:1e-6 ~alpha:0.5;
        Netlist.c "C1" "out" "0" 1e-9;
      ]
  in
  check_bool "mixed orders rejected" true (Mna.stamp_fractional mixed = None)

(* ---------- unparser roundtrip ---------- *)

let test_netlist_to_string_roundtrip () =
  let text =
    "V1 in 0 step(1, 1n)\n\
     V2 b 0 sin(0.5 2 1e6 0.1)\n\
     V3 c 0 pwl(0 0, 1e-9 1, 2e-9 0)\n\
     I1 d 0 pulse(0 0.001 1e-9 2e-9 1e-8)\n\
     I2 e 0 exp(3 1e-6)\n\
     I3 f 0 ramp(2 1e-9)\n\
     R1 in out 1000\n\
     C1 out 0 1e-6\n\
     L1 out d 1e-8\n\
     P1 e 0 q=1e-6 alpha=0.5\n\
     G1 f 0 in 0 0.002\n\
     E1 g 0 out 0 10\n"
  in
  let net = Parser.parse_string text in
  let printed = Netlist.to_string net in
  let reparsed = Parser.parse_string printed in
  check_int "same cardinality" (cardinality net)
    (cardinality reparsed);
  check_int "same nodes" (Netlist.node_count net) (Netlist.node_count reparsed);
  (* stamping both must give identical matrices *)
  let mt1, srcs1 = Mna.stamp net in
  let mt2, srcs2 = Mna.stamp reparsed in
  close "A matrices equal" 0.0
    (Csr.max_abs_diff mt1.Multi_term.a mt2.Multi_term.a);
  check_int "same source count" (Array.length srcs1) (Array.length srcs2);
  (* and the sources must evaluate identically *)
  Array.iteri
    (fun k s1 ->
      let s2 = srcs2.(k) in
      List.iter
        (fun t ->
          close
            (Printf.sprintf "source %d at %g" k t)
            (Source.eval s1 t) (Source.eval s2 t) ~tol:1e-12)
        [ 0.0; 0.4e-9; 1.1e-9; 3e-9; 7.7e-9 ])
    srcs1

let test_fn_source_not_printable () =
  check_bool "raises" true
    (try
       ignore (Netlist.instance_to_line (Netlist.v "V1" "a" "0" (Source.Fn exp)));
       false
     with Invalid_argument _ -> true)

let prop_random_netlist_roundtrip =
  QCheck.Test.make ~count:40
    ~name:"random netlists survive print → parse → stamp unchanged"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let rand_val lo hi = lo *. ((hi /. lo) ** Random.State.float st 1.0) in
      let node k = Printf.sprintf "n%d" k in
      let n_nodes = 2 + Random.State.int st 5 in
      let rand_node () = node (Random.State.int st n_nodes) in
      let rand_node_or_gnd () =
        if Random.State.bool st then "0" else rand_node ()
      in
      let net = Netlist.create () in
      (* a source to make the system meaningful *)
      Netlist.add net
        (Netlist.i "I0" (node 0) "0"
           (Source.Pulse
              {
                low = 0.0;
                high = rand_val 1e-4 1e-2;
                delay = rand_val 1e-12 1e-9;
                width = rand_val 1e-12 1e-9;
                period = Float.infinity;
              }));
      for k = 1 to 3 + Random.State.int st 8 do
        let name kind = Printf.sprintf "%s%d" kind k in
        let a = rand_node () and b = rand_node_or_gnd () in
        if a <> b then
          match Random.State.int st 4 with
          | 0 -> Netlist.add net (Netlist.r (name "R") a b (rand_val 1.0 1e6))
          | 1 -> Netlist.add net (Netlist.c (name "C") a b (rand_val 1e-15 1e-6))
          | 2 -> Netlist.add net (Netlist.l (name "L") a b (rand_val 1e-12 1e-3))
          | _ ->
              Netlist.add net
                (Netlist.cpe (name "P") a b ~q:(rand_val 1e-9 1e-3)
                   ~alpha:(rand_val 0.2 0.9))
      done;
      let reparsed = Parser.parse_string (Netlist.to_string net) in
      let mt1, _ = Mna.stamp net in
      let mt2, _ = Mna.stamp reparsed in
      Csr.max_abs_diff mt1.Multi_term.a mt2.Multi_term.a < 1e-15
      && List.length mt1.Multi_term.terms = List.length mt2.Multi_term.terms
      && Netlist.node_count net = Netlist.node_count reparsed)

(* ---------- parser fuzz ----------

   The QCheck roundtrip above starts from netlist *objects*, so it only
   ever sees the canonical surface syntax [Netlist.to_string] emits.
   This fuzzer starts from raw TEXT and exercises the syntax the
   unparser never produces: value suffixes (mixed case), comment lines,
   trailing `;` comments, commas inside source calls, stray blank lines
   and a `.end` card. Cases are seeded from OPM_PROP_SEED (default
   20260806) and every failure carries the replay seed. *)

let fuzz_base_seed =
  match Sys.getenv_opt "OPM_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 20260806)
  | None -> 20260806

let fuzz_prop ~n f () =
  for k = 0 to n - 1 do
    let seed = fuzz_base_seed + (1013904223 * k) in
    let st = Random.State.make [| 0x51c7; seed |] in
    try f st
    with e ->
      Alcotest.failf "case %d failed — replay with OPM_PROP_SEED=%d — %s" k
        seed (Printexc.to_string e)
  done

let random_netlist_text st =
  let buf = Buffer.create 256 in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let value () =
    let mant = 0.1 +. Random.State.float st 99.9 in
    match Random.State.int st 4 with
    | 0 -> Printf.sprintf "%.4g" mant
    | 1 ->
        Printf.sprintf "%.4g%s" mant
          (pick [| "k"; "meg"; "m"; "u"; "n"; "p" |])
    | 2 -> Printf.sprintf "%.4g%s" mant (pick [| "K"; "MEG"; "U"; "N" |])
    | _ -> Printf.sprintf "%.4ge%+d" mant (Random.State.int st 9 - 4)
  in
  let n_nodes = 2 + Random.State.int st 5 in
  let node () = Printf.sprintf "n%d" (Random.State.int st n_nodes) in
  let node_or_gnd () =
    if Random.State.bool st then pick [| "0"; "gnd"; "GND" |] else node ()
  in
  let sep () = pick [| " "; ", " |] in
  let source_spec () =
    match Random.State.int st 8 with
    | 0 -> Printf.sprintf "step(%s)" (value ())
    | 1 -> Printf.sprintf "STEP(%s%s1n)" (value ()) (sep ())
    | 2 ->
        Printf.sprintf "pulse(0%s%s%s1n%s5n%s20n)" (sep ()) (value ())
          (sep ()) (sep ()) (sep ())
    | 3 -> Printf.sprintf "sin(0%s%s%s1meg)" (sep ()) (value ()) (sep ())
    | 4 -> Printf.sprintf "exp(%s%s%s)" (value ()) (sep ()) (value ())
    | 5 -> Printf.sprintf "ramp(%s)" (value ())
    | 6 -> Printf.sprintf "pwl(0 0, 1u %s, 2u 0)" (value ())
    | _ -> if Random.State.bool st then "dc " ^ value () else value ()
  in
  let decor line =
    let line = if Random.State.int st 4 = 0 then "  " ^ line else line in
    let line =
      if Random.State.int st 4 = 0 then line ^ "   ; trailing comment"
      else line
    in
    Buffer.add_string buf line;
    Buffer.add_char buf '\n';
    if Random.State.int st 5 = 0 then
      Buffer.add_string buf (pick [| "* a comment line\n"; "\n" |])
  in
  (* a driving source so stamping is meaningful *)
  decor
    (Printf.sprintf "%s0 n0 0 %s"
       (pick [| "I"; "V" |])
       (source_spec ()));
  for k = 1 to 3 + Random.State.int st 8 do
    let a = node () and b = node_or_gnd () in
    if a <> b && not (Netlist.is_ground a && Netlist.is_ground b) then
      match Random.State.int st 7 with
      | 0 -> decor (Printf.sprintf "R%d %s %s %s" k a b (value ()))
      | 1 -> decor (Printf.sprintf "C%d %s %s %s" k a b (value ()))
      | 2 -> decor (Printf.sprintf "L%d %s %s %s" k a b (value ()))
      | 3 ->
          decor
            (Printf.sprintf "P%d %s %s q=%s alpha=%.3f" k a b (value ())
               (0.2 +. Random.State.float st 0.7))
      | 4 ->
          decor
            (Printf.sprintf "G%d %s %s %s 0 %s" k a b (node ()) (value ()))
      | 5 -> decor (Printf.sprintf "I%d %s %s %s" k a b (source_spec ()))
      | _ -> decor (Printf.sprintf "V%d %s %s %s" k a b (source_spec ()))
  done;
  if Random.State.bool st then
    Buffer.add_string buf (pick [| ".end\n"; ".END\n" |]);
  Buffer.contents buf

let prop_parser_fuzz_text_roundtrip =
  fuzz_prop ~n:40 (fun st ->
      let text = random_netlist_text st in
      let net1 =
        try Parser.parse_string text
        with Parser.Parse_error { line; message } ->
          Alcotest.failf "generated text rejected at line %d (%s):\n%s" line
            message text
      in
      let printed = Netlist.to_string net1 in
      let net2 = Parser.parse_string printed in
      check_int "cardinality survives print → parse"
        (cardinality net1)
        (cardinality net2);
      check_int "node count survives print → parse"
        (Netlist.node_count net1)
        (Netlist.node_count net2);
      let mt1, srcs1 = Mna.stamp net1 in
      let mt2, srcs2 = Mna.stamp net2 in
      close "stamped A matrices equal" 0.0
        (Csr.max_abs_diff mt1.Multi_term.a mt2.Multi_term.a)
        ~tol:1e-15;
      check_int "same term count"
        (List.length mt1.Multi_term.terms)
        (List.length mt2.Multi_term.terms);
      check_int "same source count" (Array.length srcs1)
        (Array.length srcs2);
      Array.iteri
        (fun k s1 ->
          List.iter
            (fun t ->
              close
                (Printf.sprintf "source %d at t=%g" k t)
                (Source.eval s1 t)
                (Source.eval srcs2.(k) t)
                ~tol:1e-12)
            [ 0.0; 3e-7; 1.1e-6; 5e-6 ])
        srcs1)

(* every rejection must point at the offending 1-based line, whatever
   layer it comes from (tokenizer, value parser, element arity, source
   grammar, or the netlist's own validation wrapped by parse_string) *)
let test_parser_fuzz_malformed_line_numbers () =
  let cases =
    [
      ("R1 a 0\n", 1) (* missing value *);
      ("R1 a 0 1k\nC1 b 0 12xyz\n", 2) (* unparsable value token *);
      ("* comment\n\nZ1 a 0 1\n", 3) (* unknown element letter *);
      ("R1 a 0 1k\nV1 a 0 wobble(3)\n", 2) (* unknown source function *);
      ("V1 a 0 pulse(0 1\n", 1) (* unbalanced '(' *);
      ("R1 a 0 1k\nR2 b 0 2k\nV1 c 0 pwl(0 0, 1n)\n", 3)
      (* odd pwl argument count *);
      ("P1 a 0 q=1u\n", 1) (* CPE missing alpha=<v> *);
      ("R1 a 0 1k\nP1 a 0 q=1u beta=0.5\n", 2) (* wrong CPE keyword *);
      ("G1 a 0 b 1m\n", 1) (* VCCS arity *);
      ("R1 a 0 1k\nR1 b 0 2k\n", 2) (* duplicate designator *);
    ]
  in
  List.iteri
    (fun k (text, expected_line) ->
      try
        ignore (Parser.parse_string text);
        Alcotest.failf "case %d: expected Parse_error for %S" k text
      with Parser.Parse_error { line; message } ->
        check_int (Printf.sprintf "case %d line number" k) expected_line line;
        check_bool
          (Printf.sprintf "case %d has a message" k)
          true
          (String.length message > 0))
    cases

(* ---------- parser conformance table ----------

   Each row is netlist text and either the instances and node order it
   must produce, or the exact [Parse_error] it must raise. Instances are
   compared through [Netlist.instance_to_line] ("%.17g"), so every
   parsed value is checked bit for bit; expected values are written as
   the product the suffix rule computes (2.2u = 2.2 *. 1e-6). *)

type conformance = Parses of Netlist.instance list * string list | Fails of int * string

let conformance_rows =
  let u = 1e-6 and k = 1e3 and n = 1e-9 in
  let step1 = Source.Step { amplitude = 1.0; delay = 0.0 } in
  [
    ( "LF endings",
      "R1 a 0 1k\nC1 a 0 2.2u\n",
      Parses ([ Netlist.r "R1" "a" "0" (1.0 *. k); Netlist.c "C1" "a" "0" (2.2 *. u) ], [ "a" ]) );
    ( "CRLF endings",
      "R1 a 0 1k\r\nC1 a b 2.2u\r\n.end\r\n",
      Parses ([ Netlist.r "R1" "a" "0" (1.0 *. k); Netlist.c "C1" "a" "b" (2.2 *. u) ], [ "a"; "b" ]) );
    ( "CRLF with a comment after the value",
      "R1 a 0 1k ; load\r\nC1 a 0 1u;x\r\n",
      Parses ([ Netlist.r "R1" "a" "0" (1.0 *. k); Netlist.c "C1" "a" "0" (1.0 *. u) ], [ "a" ]) );
    ( "CRLF error line",
      "R1 a 0 1k\r\nC1 b 0\r\n",
      Fails (2, "C1 expects exactly one value") );
    ( "tabs and blanks",
      "\t R1\ta \t0\t\t1k \t\n   C1  a  0  1u   \n",
      Parses ([ Netlist.r "R1" "a" "0" (1.0 *. k); Netlist.c "C1" "a" "0" (1.0 *. u) ], [ "a" ]) );
    ( "comment lines and mid-line comments",
      "* title card\n  * indented\n;only a comment\nR1 a 0 1k;no space\nL1 a b 10n ; henries\n\n",
      Parses ([ Netlist.r "R1" "a" "0" (1.0 *. k); Netlist.l "L1" "a" "b" (10.0 *. n) ], [ "a"; "b" ]) );
    ( "upper- and lower-case designators",
      "RLOAD a 0 50\nc1 a 0 1u\nl2 a b 1n\nI9 b 0 1\n",
      Parses
        ( [
            Netlist.r "RLOAD" "a" "0" 50.0;
            Netlist.c "c1" "a" "0" (1.0 *. u);
            Netlist.l "l2" "a" "b" (1.0 *. n);
            Netlist.i "I9" "b" "0" (Source.Dc 1.0);
          ],
          [ "a"; "b" ] ) );
    ( ".END upper case, then more lines",
      "R1 a 0 1\n.END\nR2 a 0 2\n.end\n",
      Parses ([ Netlist.r "R1" "a" "0" 1.0; Netlist.r "R2" "a" "0" 2.0 ], [ "a" ]) );
    ( "comma separators outside parentheses",
      "R1,a,0,1k\nC1 a, b,1u\n",
      Parses ([ Netlist.r "R1" "a" "0" (1.0 *. k); Netlist.c "C1" "a" "b" (1.0 *. u) ], [ "a"; "b" ]) );
    ( "value suffixes",
      "R1 a 0 1MEG\nC1 a 0 2.2u\nR2 a 0 1e-3k\nC2 a 0 4F\nR3 a 0 3.5\n",
      Parses
        ( [
            Netlist.r "R1" "a" "0" (1.0 *. 1e6);
            Netlist.c "C1" "a" "0" (2.2 *. u);
            Netlist.r "R2" "a" "0" (1e-3 *. k);
            Netlist.c "C2" "a" "0" (4.0 *. 1e-15);
            Netlist.r "R3" "a" "0" 3.5;
          ],
          [ "a" ] ) );
    ( "pwl with mixed separators",
      "V1 a 0 pwl(0 0, 1n 1)\nV2 b 0 PWL(0,0 1n,1 , 2n  0)\n",
      Parses
        ( [
            Netlist.v "V1" "a" "0" (Source.pwl [ (0.0, 0.0); (1.0 *. n, 1.0) ]);
            Netlist.v "V2" "b" "0"
              (Source.pwl [ (0.0, 0.0); (1.0 *. n, 1.0); (2.0 *. n, 0.0) ]);
          ],
          [ "a"; "b" ] ) );
    ( "every source form",
      "V1 a 0 step(1)\nV2 a b STEP(1, 2n)\nI1 b 0 dc 1m\nV3 c 0 2.5\n\
       V4 c d pulse(0 5 1n 2n 0)\nV5 d 0 sin(0.5 2 1meg 0.1)\nI2 d 0 exp(3 1u)\n\
       I3 e 0 ramp(2)\n",
      Parses
        ( [
            Netlist.v "V1" "a" "0" step1;
            Netlist.v "V2" "a" "b" (Source.Step { amplitude = 1.0; delay = 2.0 *. n });
            Netlist.i "I1" "b" "0" (Source.Dc (1.0 *. 1e-3));
            Netlist.v "V3" "c" "0" (Source.Dc 2.5);
            Netlist.v "V4" "c" "d"
              (Source.Pulse
                 { low = 0.0; high = 5.0; delay = 1.0 *. n; width = 2.0 *. n; period = Float.infinity });
            Netlist.v "V5" "d" "0"
              (Source.Sine { offset = 0.5; amplitude = 2.0; freq_hz = 1.0 *. 1e6; phase = 0.1 });
            Netlist.i "I2" "d" "0" (Source.Exp_decay { amplitude = 3.0; tau = 1.0 *. u });
            Netlist.i "I3" "e" "0" (Source.Ramp { slope = 2.0; delay = 0.0 });
          ],
          [ "a"; "b"; "c"; "d"; "e" ] ) );
    ( "CPE, VCCS and VCVS, control nodes registered in order",
      "P1 a 0 Q=1u ALPHA=0.5\nG1 a 0 s t 2m\nE1 b gnd a 0 10\n",
      Parses
        ( [
            Netlist.cpe "P1" "a" "0" ~q:(1.0 *. u) ~alpha:0.5;
            Netlist.vccs "G1" "a" "0" ~ctrl:("s", "t") ~gm:(2.0 *. 1e-3);
            Netlist.vcvs "E1" "b" "gnd" ~ctrl:("a", "0") ~gain:10.0;
          ],
          [ "a"; "s"; "t"; "b" ] ) );
    ( "ground as 0, gnd and GND",
      "R1 a 0 1\nR2 a gnd 2\nR3 GND b 3\nR4 b Gnd 4\n",
      Parses
        ( [
            Netlist.r "R1" "a" "0" 1.0;
            Netlist.r "R2" "a" "gnd" 2.0;
            Netlist.r "R3" "GND" "b" 3.0;
            Netlist.r "R4" "b" "Gnd" 4.0;
          ],
          [ "a"; "b" ] ) );
    ( "node names keep their case",
      "R1 Out 0 1\nR2 out 0 1\n",
      Parses ([ Netlist.r "R1" "Out" "0" 1.0; Netlist.r "R2" "out" "0" 1.0 ], [ "Out"; "out" ]) );
    ( "duplicate designator differing only in case",
      "R1 a 0 1k\nr1 b 0 2k\n",
      Fails (2, "Netlist.add: duplicate designator r1") );
    ("ground to ground", "R1 0 GND 1\n", Fails (1, "Netlist.add: R1 connects ground to ground"));
    ( "non-positive value",
      "R1 a 0 1\nC1 a 0 -1u\n",
      Fails (2, "Netlist.add: C1: capacitance must be positive (got -1e-06)") );
    ("missing value", "R1 a 0\n", Fails (1, "R1 expects exactly one value"));
    ("too many values", "R1 a 0 1 2\n", Fails (1, "R1 expects exactly one value"));
    ( "unparsable value",
      "R1 a 0 1k\nC1 b 0 12XYZ\n",
      Fails (2, "Parser.parse_value: cannot parse \"12xyz\"") );
    ( "unknown element letter",
      "* comment\n\nZ1 a 0 1\n",
      Fails (3, "unknown element type 'Z'") );
    ( "too few tokens",
      "R1 a\n",
      Fails (1, "element line needs a designator and two nodes") );
    ( "unknown source function",
      "R1 a 0 1k\nV1 a 0 wobble(3)\n",
      Fails (2, "unknown source wobble with 1 argument(s)") );
    ( "wrong source arity",
      "V1 a 0 exp(1)\n",
      Fails (1, "unknown source exp with 1 argument(s)") );
    ("unbalanced '('", "V1 a 0 pulse(0 1\n", Fails (1, "unbalanced '('"));
    ("unbalanced ')'", "R1 a 0 1k)\n", Fails (1, "unbalanced ')'"));
    ( "malformed source call",
      "V1 a 0 step(1)x\n",
      Fails (1, "malformed source call \"step(1)x\"") );
    ( "bad value inside a call",
      "V1 a 0 step(1q)\n",
      Fails (1, "Parser.parse_value: cannot parse \"1q\"") );
    ( "odd pwl argument count",
      "R1 a 0 1k\nR2 b 0 2k\nV1 c 0 pwl(0 0, 1n)\n",
      Fails (3, "pwl needs an even number of arguments") );
    ( "pwl times not increasing",
      "V1 a 0 pwl(1n 0, 1n 1)\n",
      Fails (1, "Source.pwl: times must strictly increase") );
    ("missing source", "V1 a 0\n", Fails (1, "missing source specification"));
    ("dc arity", "I1 a 0 dc 1 2\n", Fails (1, "dc takes one value"));
    ( "two bare source tokens",
      "V1 a 0 1 2\n",
      Fails (1, "cannot parse source specification") );
    ( "CPE missing alpha",
      "P1 a 0 q=1u\n",
      Fails (1, "CPE syntax: P<name> n+ n- q=<v> alpha=<v>") );
    ( "CPE wrong keyword",
      "R1 a 0 1k\nP1 a 0 q=1u beta=0.5\n",
      Fails (2, "expected alpha=<value>, got \"beta=0.5\"") );
    ("CPE empty value", "P1 a 0 q= alpha=0.5\n", Fails (1, "Parser.parse_value: empty value"));
    ("VCCS arity", "G1 a 0 b 1m\n", Fails (1, "VCCS syntax: G<name> n+ n- nc+ nc- <gm>"));
    ("VCVS arity", "E1 a 0 b\n", Fails (1, "VCVS syntax: E<name> n+ n- nc+ nc- <gain>"));
  ]

let test_parser_conformance () =
  List.iter
    (fun (label, text, expected) ->
      match (Parser.parse_string text, expected) with
      | net, Parses (insts, nodes) ->
          Alcotest.(check (list string))
            (label ^ ": instances")
            (List.map Netlist.instance_to_line insts)
            (List.map Netlist.instance_to_line (Netlist.instances net));
          Alcotest.(check (list string))
            (label ^ ": node order") nodes
            (Array.to_list (Netlist.node_names net))
      | _, Fails (line, message) ->
          Alcotest.failf "%s: expected Parse_error at line %d (%s)" label line message
      | exception Parser.Parse_error { line = got_line; message = got } -> (
          match expected with
          | Fails (line, message) ->
              check_int (label ^ ": line") line got_line;
              Alcotest.(check string) (label ^ ": message") message got
          | Parses _ ->
              Alcotest.failf "%s: unexpected Parse_error at line %d: %s" label got_line got))
    conformance_rows

(* The text → pencil front end allocates in proportion to the text:
   parsing and NA-stamping the 58×58×2 power grid (1 MB of netlist,
   23 k elements) must stay under a fixed byte budget, about 1.5x the
   19.9 MiB it takes with the byte-level tokenizer, the flat name index
   and the counting-sort CSR build. Gc.allocated_bytes is deterministic, so this gates what
   wall time on a shared host cannot. *)
let test_front_end_allocation () =
  let spec = { Power_grid.default_spec with nx = 58; ny = 58; nz = 2; load_count = 8 } in
  let text = Netlist.to_string (Power_grid.generate spec) in
  let outputs = [ Mna.Node_voltage (Power_grid.node_name ~x:0 ~y:0 ~z:0) ] in
  let before = Gc.allocated_bytes () in
  let mt, _ = Na2.stamp ~outputs (Parser.parse_string text) in
  let mb = (Gc.allocated_bytes () -. before) /. 1048576.0 in
  ignore (Sys.opaque_identity mt);
  if mb >= 30.0 then
    Alcotest.failf "parse + stamp allocated %.1f MB (limit 30 MB)" mb

let prop_random_ladder_opm_matches_trapezoidal =
  QCheck.Test.make ~count:15
    ~name:"random RC ladders: OPM and trapezoidal agree below −55 dB"
    QCheck.(pair (int_range 1 6) (int_range 0 1000))
    (fun (sections, seed) ->
      let st = Random.State.make [| seed |] in
      (* every section is r and 1 nF, and the horizon scales with
         τ = r·1 nF·sections: r alone sets the time scale *)
      let r = 100.0 +. Random.State.float st 10e3 in
      let tau = r *. 1e-9 *. float_of_int sections in
      let net =
        Generators.rc_ladder ~r ~sections
          ~input:(Source.Step { amplitude = 1.0; delay = 0.0 })
          ()
      in
      let probe = [ Mna.Node_voltage (Printf.sprintf "n%d" sections) ] in
      let sys, srcs = Mna.stamp_linear ~outputs:probe net in
      let t_end = 3.0 *. tau in
      let m = 2000 in
      let opm = Opm.simulate_linear ~grid:(Grid.uniform ~t_end ~m) sys srcs in
      let trap =
        Opm_transient.Stepper.solve ~scheme:Opm_transient.Stepper.Trapezoidal
          ~h:(t_end /. float_of_int m) ~t_end sys srcs
      in
      Error.waveform_error_db ~reference:opm.Sim_result.outputs trap < -55.0)

(* ---------- controlled sources ---------- *)

let test_parse_controlled_sources () =
  let net =
    Parser.parse_string
      "V1 in 0 dc 1\nG1 out 0 in 0 2m\nE1 amp 0 out 0 10\nR1 out 0 1k\nR2 amp 0 1k\n"
  in
  (match Netlist.find net "G1" with
  | Some { Netlist.element = Netlist.Vccs { gm; ctrl_plus; ctrl_minus }; _ } ->
      close "gm" 2e-3 gm ~tol:1e-12;
      check_bool "ctrl nodes" true (ctrl_plus = "in" && ctrl_minus = "0")
  | _ -> Alcotest.fail "G1 not parsed as VCCS");
  (match Netlist.find net "E1" with
  | Some { Netlist.element = Netlist.Vcvs { gain; _ }; _ } ->
      close "gain" 10.0 gain
  | _ -> Alcotest.fail "E1 not parsed as VCVS");
  check_bool "bad arity rejected" true
    (try
       ignore (Parser.parse_string "G1 a 0 b 1m\n");
       false
     with Parser.Parse_error _ -> true)

let test_vccs_registers_control_nodes () =
  (* a control node that appears nowhere else must still become a node *)
  let net =
    Netlist.of_list
      [
        Netlist.vccs "G1" "out" "0" ~ctrl:("sense", "0") ~gm:1e-3;
        Netlist.r "R1" "out" "0" 1e3;
      ]
  in
  check_bool "sense registered" true (Netlist.node_index net "sense" <> None)

let test_vcvs_transient_follower () =
  (* unity-gain buffer driving an RC: output node must follow the same
     exponential as the direct drive *)
  let direct = Parser.parse_string "V1 in 0 step(1)\nR1 in out 1k\nC1 out 0 1u\n" in
  let buffered =
    Parser.parse_string
      "V1 src 0 step(1)\nRb src 0 1meg\nE1 in 0 src 0 1\nR1 in out 1k\nC1 out 0 1u\n"
  in
  let sys1, s1 = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "out" ] direct in
  let sys2, s2 = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "out" ] buffered in
  let grid = Grid.uniform ~t_end:5e-3 ~m:200 in
  let r1 = Opm.simulate_linear ~grid sys1 s1 in
  let r2 = Opm.simulate_linear ~grid sys2 s2 in
  check_bool "buffer is transparent" true
    (Vec.approx_equal ~tol:1e-9 (Sim_result.output r1 0) (Sim_result.output r2 0))

let test_vccs_integrator () =
  (* G into a capacitor is an integrator: v = (gm/C)·∫v_in *)
  let net =
    Parser.parse_string
      "V1 in 0 dc 1\nRl in 0 1k\nG1 out 0 in 0 1m\nC1 out 0 1u\n"
  in
  let sys, srcs = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "out" ] net in
  let grid = Grid.uniform ~t_end:2e-3 ~m:400 in
  let r = Opm.simulate_linear ~grid sys srcs in
  let y = Sim_result.output r 0 in
  let mids = Grid.midpoints grid in
  (* current gm·1V leaves node "out", charging C negatively *)
  let err = ref 0.0 in
  Array.iteri
    (fun i t -> err := Float.max !err (Float.abs (y.(i) +. (1e-3 /. 1e-6 *. t))))
    mids;
  check_bool "ramps at −gm/C" true (!err < 2e-2)

let test_na2_accepts_vccs () =
  let net =
    Netlist.of_list
      [
        Netlist.i "I1" "a" "0" step;
        Netlist.vccs "G1" "b" "0" ~ctrl:("a", "0") ~gm:1e-3;
        Netlist.r "R1" "a" "0" 1e3;
        Netlist.r "R2" "b" "0" 1e3;
        Netlist.c "C1" "b" "0" 1e-9;
      ]
  in
  let mt, _ = Na2.stamp net in
  Alcotest.(check int) "nodes only" 2 (Multi_term.order mt)

let test_na2_rejects_vcvs () =
  let net =
    Netlist.of_list
      [
        Netlist.i "I1" "a" "0" step;
        Netlist.r "R1" "a" "0" 1e3;
        Netlist.vcvs "E1" "b" "0" ~ctrl:("a", "0") ~gain:2.0;
        Netlist.r "R2" "b" "0" 1e3;
      ]
  in
  check_bool "raises" true
    (try
       ignore (Na2.stamp net);
       false
     with Invalid_argument _ -> true)

(* ---------- NA second-order ---------- *)

let test_na2_sizes_and_stamps () =
  let net =
    Netlist.of_list
      [
        Netlist.i "I1" "a" "0" step;
        Netlist.r "R1" "a" "b" 2.0;
        Netlist.l "L1" "b" "0" 4.0;
        Netlist.c "C1" "a" "0" 3.0;
      ]
  in
  let mt, srcs = Na2.stamp net in
  check_int "node count only" 2 (Multi_term.order mt);
  check_int "one source" 1 (Array.length srcs);
  check_int "input derivative" 1 mt.Multi_term.input_order;
  (* term orders 2 and 1 *)
  close "max alpha" 2.0
    (List.fold_left (fun acc t -> Float.max acc t.Multi_term.alpha) 0.0 mt.Multi_term.terms);
  (* Γ = 1/L stamps into −A *)
  close "A[b][b] = −1/L" (-0.25) (Csr.get mt.Multi_term.a 1 1)

let test_na2_rejects_vsource () =
  let net =
    Netlist.of_list [ Netlist.v "V1" "a" "0" step; Netlist.r "R1" "a" "0" 1.0 ]
  in
  check_bool "raises" true
    (try
       ignore (Na2.stamp net);
       false
     with Invalid_argument _ -> true)

let test_na2_equals_mna_dynamics () =
  (* the same physical circuit through both formulations *)
  let net =
    Netlist.of_list
      [
        Netlist.i "I1" "a" "0"
          (Source.Pulse
             { low = 0.0; high = 1e-3; delay = 0.0; width = 2e-10; period = Float.infinity });
        Netlist.r "R1" "a" "b" 1.0;
        Netlist.c "C1" "a" "0" 1e-12;
        Netlist.c "C2" "b" "0" 1e-12;
        Netlist.l "L1" "b" "0" 1e-10;
      ]
  in
  let probe = [ Mna.Node_voltage "a" ] in
  let mna, srcs1 = Mna.stamp_linear ~outputs:probe net in
  let na, srcs2 = Na2.stamp ~outputs:probe net in
  let grid = Grid.uniform ~t_end:1e-9 ~m:400 in
  let r1 = Opm.simulate_linear ~grid mna srcs1 in
  let r2 = Opm.simulate_multi_term ~grid na srcs2 in
  let err =
    Error.waveform_error_db ~reference:r1.Sim_result.outputs
      r2.Sim_result.outputs
  in
  check_bool "formulations agree (< −60 dB)" true (err < -60.0)

(* ---------- generators ---------- *)

let test_rc_ladder_structure () =
  let net = Generators.rc_ladder ~sections:5 ~input:step () in
  (* 1 source + 5 R + 5 C *)
  check_int "elements" 11 (cardinality net);
  check_int "nodes: in + 5" 6 (Netlist.node_count net)

let test_rc_ladder_dc_gain () =
  (* at DC every node settles to the input voltage *)
  let net = Generators.rc_ladder ~sections:3 ~input:step () in
  let sys, srcs = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "n3" ] net in
  let grid = Grid.uniform ~t_end:1e-4 ~m:2000 in
  let r = Opm.simulate_linear ~grid sys srcs in
  let y = Sim_result.output r 0 in
  close "settles to 1" 1.0 y.(1999) ~tol:1e-3

let test_power_grid_counts () =
  let spec = { Power_grid.default_spec with nx = 3; ny = 4; nz = 2; load_count = 2 } in
  let net = Power_grid.generate spec in
  check_int "nodes" (Power_grid.na_unknowns spec) (Netlist.node_count net);
  let sys, _ = Mna.stamp_linear net in
  check_int "mna unknowns" (Power_grid.mna_unknowns spec) (Descriptor.order sys);
  (* inductors only between layers: 3·4·(2−1) = 12 *)
  check_int "via inductors" 12
    (List.length
       (List.filter
          (fun i ->
            match i.Netlist.element with Netlist.Inductor _ -> true | _ -> false)
          (Netlist.instances net)))

let test_power_grid_validation () =
  check_bool "zero dimension" true
    (try
       ignore (Power_grid.generate { Power_grid.default_spec with nx = 0 });
       false
     with Invalid_argument _ -> true);
  check_bool "too many loads" true
    (try
       ignore
         (Power_grid.generate
            { Power_grid.default_spec with nx = 2; ny = 2; load_count = 5 });
       false
     with Invalid_argument _ -> true)

let test_power_grid_deterministic () =
  let spec = { Power_grid.default_spec with nx = 3; ny = 3; nz = 2 } in
  let a = Power_grid.generate spec and b = Power_grid.generate spec in
  check_int "same size" (cardinality a) (cardinality b)

let test_two_time_scale () =
  let net = Generators.rc_two_time_scale ~input:step () in
  let sys, srcs =
    Mna.stamp_linear ~outputs:[ Mna.Node_voltage "fast"; Mna.Node_voltage "slow" ] net
  in
  let grid = Grid.uniform ~t_end:5e-4 ~m:4000 in
  let r = Opm.simulate_linear ~grid sys srcs in
  let fast = Sim_result.output r 0 and slow = Sim_result.output r 1 in
  (* early: fast nearly settled, slow barely moving *)
  check_bool "separation" true (fast.(40) > 0.8 && slow.(40) < 0.1);
  (* late: both settled *)
  check_bool "both settle" true (fast.(3999) > 0.99 && slow.(3999) > 0.95)

(* ---------- coupled lines ---------- *)

let crosstalk_peak spec =
  let net = Coupled_lines.generate spec in
  let sys, srcs =
    Mna.stamp_linear
      ~outputs:[ Mna.Node_voltage (Coupled_lines.victim_far_node spec) ]
      net
  in
  let r = Opm.simulate_linear ~grid:(Grid.uniform ~t_end:2e-9 ~m:800) sys srcs in
  snd (Measure.peak r.Sim_result.outputs ~channel:0)

let test_coupled_lines_glitch_bounded () =
  let spec = Coupled_lines.default_spec in
  let peak = crosstalk_peak spec in
  let divider =
    spec.Coupled_lines.cc /. (spec.Coupled_lines.cc +. spec.Coupled_lines.c_seg)
  in
  check_bool "positive glitch" true (peak > 0.01);
  check_bool "below the capacitive divider bound" true (peak < divider)

let test_coupled_lines_monotone_in_coupling () =
  let spec = Coupled_lines.default_spec in
  let p_small = crosstalk_peak { spec with Coupled_lines.cc = 5e-15 } in
  let p_big = crosstalk_peak { spec with Coupled_lines.cc = 60e-15 } in
  check_bool "more coupling, bigger glitch" true (p_big > 2.0 *. p_small)

let test_coupled_lines_victim_decays () =
  (* the glitch is transient: by the end of a long window the victim is
     pulled back to ground by its holder *)
  let spec = Coupled_lines.default_spec in
  let net = Coupled_lines.generate spec in
  let sys, srcs =
    Mna.stamp_linear
      ~outputs:[ Mna.Node_voltage (Coupled_lines.victim_far_node spec) ]
      net
  in
  let r = Opm.simulate_linear ~grid:(Grid.uniform ~t_end:20e-9 ~m:2000) sys srcs in
  let v_end = Measure.final_value r.Sim_result.outputs ~channel:0 in
  check_bool "glitch decays" true (Float.abs v_end < 1e-3)

(* ---------- transmission-line model ---------- *)

let test_tline_shape () =
  let sys = Tline.model () in
  check_int "7 states (paper)" 7 (Descriptor.order sys);
  check_int "2 inputs" 2 (Descriptor.input_count sys);
  check_int "2 outputs" 2 (Descriptor.output_count sys);
  close "alpha half" 0.5 Tline.alpha;
  close "span 2.7 ns" 2.7e-9 Tline.t_end ~tol:1e-20

let test_tline_stability () =
  (* the step response must stay bounded over a long horizon *)
  let sys = Tline.model () in
  let grid = Grid.uniform ~t_end:(10.0 *. Tline.t_end) ~m:256 in
  let r = Opm.simulate_fractional ~grid ~alpha:Tline.alpha sys (Tline.inputs ()) in
  let y = Sim_result.output r 0 in
  check_bool "bounded" true (Vec.norm_inf y < 10.0)

let test_tline_port2_causality () =
  (* the far port responds later and weaker than the driven port *)
  let sys = Tline.model () in
  let grid = Grid.uniform ~t_end:Tline.t_end ~m:64 in
  let r = Opm.simulate_fractional ~grid ~alpha:Tline.alpha sys (Tline.inputs ()) in
  let y1 = Sim_result.output r 0 and y2 = Sim_result.output r 1 in
  check_bool "port 1 leads early" true (y1.(2) > y2.(2));
  check_bool "port 2 wakes up" true (y2.(63) > 0.05)

let () =
  let t name f = Alcotest.test_case name `Quick f in
  Alcotest.run "circuit"
    [
      ( "netlist",
        [
          t "node registry" test_netlist_nodes;
          t "ground aliases" test_netlist_ground_aliases;
          t "duplicate rejected" test_netlist_duplicate_rejected;
          t "invalid values" test_netlist_invalid_values;
          t "find" test_netlist_find;
        ] );
      ( "parser",
        [
          t "value suffixes" test_parse_value_suffixes;
          t "malformed value" test_parse_value_malformed;
          t "elements" test_parse_elements;
          t "sources" test_parse_sources;
          t "one-shot pulse" test_parse_pulse_oneshot;
          t "error line numbers" test_parse_errors_carry_line_numbers;
          t "file roundtrip" test_parse_file_roundtrip;
          t "fuzz: random text roundtrips" prop_parser_fuzz_text_roundtrip;
          t "fuzz: malformed inputs carry line numbers"
            test_parser_fuzz_malformed_line_numbers;
          t "conformance table" test_parser_conformance;
        ] );
      ( "mna",
        [
          t "RC matrices entrywise" test_mna_rc_matrices;
          t "RC symmetry" test_mna_symmetric_rc_stamps;
          t "inductor branch" test_mna_inductor_branch;
          t "state names" test_mna_state_names;
          t "probe errors" test_mna_probe_errors;
          t "CPE grouping by order" test_mna_cpe_grouping;
          t "stamp_linear rejects CPE" test_mna_stamp_linear_rejects_cpe;
          t "stamp_fractional shapes" test_mna_stamp_fractional_shapes;
        ] );
      ( "unparse",
        [
          t "roundtrip all elements" test_netlist_to_string_roundtrip;
          t "Fn source not printable" test_fn_source_not_printable;
          QCheck_alcotest.to_alcotest prop_random_netlist_roundtrip;
          QCheck_alcotest.to_alcotest prop_random_ladder_opm_matches_trapezoidal;
        ] );
      ( "controlled-sources",
        [
          t "parse G and E lines" test_parse_controlled_sources;
          t "control nodes registered" test_vccs_registers_control_nodes;
          t "vcvs unity follower" test_vcvs_transient_follower;
          t "vccs integrator" test_vccs_integrator;
          t "na2 accepts vccs" test_na2_accepts_vccs;
          t "na2 rejects vcvs" test_na2_rejects_vcvs;
        ] );
      ( "na2",
        [
          t "sizes and stamps" test_na2_sizes_and_stamps;
          t "rejects V sources" test_na2_rejects_vsource;
          t "NA = MNA dynamics" test_na2_equals_mna_dynamics;
          t "front-end allocation budget" test_front_end_allocation;
        ] );
      ( "generators",
        [
          t "rc ladder structure" test_rc_ladder_structure;
          t "rc ladder DC gain" test_rc_ladder_dc_gain;
          t "power grid counts" test_power_grid_counts;
          t "power grid validation" test_power_grid_validation;
          t "power grid deterministic" test_power_grid_deterministic;
          t "two-time-scale circuit" test_two_time_scale;
        ] );
      ( "coupled-lines",
        [
          t "glitch bounded by divider" test_coupled_lines_glitch_bounded;
          t "monotone in coupling" test_coupled_lines_monotone_in_coupling;
          t "glitch decays" test_coupled_lines_victim_decays;
        ] );
      ( "tline",
        [
          t "paper dimensions" test_tline_shape;
          t "stability" test_tline_stability;
          t "port causality" test_tline_port2_causality;
        ] );
    ]
