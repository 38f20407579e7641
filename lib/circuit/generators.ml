
let rc_ladder ?(r = 1e3) ~sections ~input () =
  if sections <= 0 then invalid_arg "Generators.rc_ladder: sections <= 0";
  let net = Netlist.create () in
  Netlist.add net (Netlist.v "Vin" "in" "0" input);
  let node k = if k = 0 then "in" else Printf.sprintf "n%d" k in
  for k = 1 to sections do
    Netlist.add net (Netlist.r (Printf.sprintf "R%d" k) (node (k - 1)) (node k) r);
    Netlist.add net (Netlist.c (Printf.sprintf "C%d" k) (node k) "0" 1e-9)
  done;
  net

let rc_two_time_scale ~input () =
  let r1 = 1e3 in
  let c1 = 1e-6 /. r1 in
  (* large second stage decoupled through a big resistor *)
  let r2 = 1e5 in
  let c2 = 1e-4 /. r2 in
  Netlist.of_list
    [
      Netlist.v "Vin" "in" "0" input;
      Netlist.r "R1" "in" "fast" r1;
      Netlist.c "C1" "fast" "0" c1;
      Netlist.r "R2" "fast" "slow" r2;
      Netlist.c "C2" "slow" "0" c2;
    ]

let random_rlc ?(seed = 0) ~nodes ~input () =
  if nodes <= 0 then invalid_arg "Generators.random_rlc: nodes <= 0";
  let st = Random.State.make [| 0x52c1; seed |] in
  let log_uniform lo hi = lo *. ((hi /. lo) ** Random.State.float st 1.0) in
  let node k = Printf.sprintf "n%d" k in
  let net = Netlist.create () in
  (* a current-source drive keeps the MNA E matrix free of the
     algebraic constraint row a voltage source would add *)
  Netlist.add net (Netlist.i "Iin" (node 1) "0" input);
  for k = 1 to nodes do
    (* every node gets a capacitor to ground, so the node block of E is
       diagonally positive and E stays invertible (Exact_lti-safe) *)
    Netlist.add net
      (Netlist.c (Printf.sprintf "C%d" k) (node k) "0" (log_uniform 0.5e-9 2e-9));
    if k > 1 then
      Netlist.add net
        (Netlist.r
           (Printf.sprintf "R%d" k)
           (node (k - 1))
           (node k)
           (log_uniform 500.0 2000.0))
  done;
  (* load to ground bounds the DC gain *)
  Netlist.add net (Netlist.r "Rload" (node nodes) "0" (log_uniform 500.0 2000.0));
  (* random extra couplings: cross resistors, and sometimes an inductor
     to ground (kept slow so its LC resonance is well resolved, and
     damped through the resistive chain) — only positive passive
     elements, so the network is stable by construction *)
  let extras = max 1 (nodes / 2) in
  for x = 1 to extras do
    let a = 1 + Random.State.int st nodes in
    let b = 1 + Random.State.int st nodes in
    if a <> b then
      Netlist.add net
        (Netlist.r (Printf.sprintf "RX%d" x) (node a) (node b)
           (log_uniform 1e3 1e4));
    if Random.State.float st 1.0 < 0.3 then
      Netlist.add net
        (Netlist.l (Printf.sprintf "LX%d" x)
           (node (1 + Random.State.int st nodes))
           "0"
           (log_uniform 1e-4 1e-3))
  done;
  net

let cpe_charging ?(r = 1e3) ?(q = 1e-6) ?(alpha = 0.5) ~input () =
  Netlist.of_list
    [
      Netlist.v "Vin" "in" "0" input;
      Netlist.r "R1" "in" "out" r;
      Netlist.cpe "P1" "out" "0" ~q ~alpha;
    ]
