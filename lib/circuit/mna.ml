open Opm_numkit
open Opm_sparse
open Opm_core

type probe =
  | Node_voltage of string
  | Branch_current of string
  | State of int

(* branch elements that carry a current state, in netlist order *)
let current_branches net =
  List.filter
    (fun inst ->
      match inst.Netlist.element with
      | Netlist.Inductor _ | Netlist.Voltage_source _ | Netlist.Vcvs _ -> true
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Cpe _
      | Netlist.Current_source _ | Netlist.Vccs _ -> false)
    (Netlist.instances net)

let state_names net =
  let nodes = Array.map (fun node -> "v(" ^ node ^ ")") (Netlist.node_names net) in
  let branches =
    List.map (fun inst -> "i(" ^ inst.Netlist.name ^ ")") (current_branches net)
  in
  Array.append nodes (Array.of_list branches)

let sources_of net =
  List.filter_map
    (fun inst ->
      match inst.Netlist.element with
      | Netlist.Voltage_source s | Netlist.Current_source s -> Some s
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _
      | Netlist.Cpe _ | Netlist.Vccs _ | Netlist.Vcvs _ -> None)
    (Netlist.instances net)

let stamp ?outputs net =
  let n_nodes = Netlist.node_count net in
  let branches = current_branches net in
  let n = n_nodes + List.length branches in
  let branch_index =
    let tbl = Hashtbl.create 16 in
    List.iteri
      (fun k inst -> Hashtbl.add tbl inst.Netlist.name (n_nodes + k))
      branches;
    tbl
  in
  let node inst_name which name =
    match Netlist.node_index net name with
    | Some k -> Some k
    | None ->
        if Netlist.is_ground name then None
        else
          invalid_arg
            (Printf.sprintf "Mna.stamp: %s: unknown %s node %s" inst_name which
               name)
  in
  let e1 = Coo.create ~rows:n ~cols:n in
  (* one extra E per distinct fractional order *)
  let e_frac : (float, Coo.t) Hashtbl.t = Hashtbl.create 4 in
  let e_of_alpha alpha =
    match Hashtbl.find_opt e_frac alpha with
    | Some coo -> coo
    | None ->
        let coo = Coo.create ~rows:n ~cols:n in
        Hashtbl.add e_frac alpha coo;
        coo
  in
  let a = Coo.create ~rows:n ~cols:n in
  let srcs = sources_of net in
  let p = List.length srcs in
  let b = Mat.zeros n p in
  (* stamp a conductance-like pair pattern into a COO target *)
  let stamp_pair coo np nm value =
    (match np with Some i -> Coo.add coo i i value | None -> ());
    (match nm with Some i -> Coo.add coo i i value | None -> ());
    match (np, nm) with
    | Some i, Some j ->
        Coo.add coo i j (-.value);
        Coo.add coo j i (-.value)
    | Some _, None | None, Some _ | None, None -> ()
  in
  let src_counter = ref 0 in
  let each inst =
    let np = node inst.Netlist.name "+" inst.Netlist.plus in
    let nm = node inst.Netlist.name "-" inst.Netlist.minus in
    match inst.Netlist.element with
    | Netlist.Resistor r -> stamp_pair a np nm (-1.0 /. r)
    | Netlist.Capacitor c -> stamp_pair e1 np nm c
    | Netlist.Cpe { q; alpha } ->
        if alpha = 1.0 then stamp_pair e1 np nm q
        else stamp_pair (e_of_alpha alpha) np nm q
    | Netlist.Inductor l ->
        let row = Hashtbl.find branch_index inst.Netlist.name in
        (* branch equation: L di/dt = v+ − v− *)
        Coo.add e1 row row l;
        (match np with Some i -> Coo.add a row i 1.0 | None -> ());
        (match nm with Some i -> Coo.add a row i (-1.0) | None -> ());
        (* KCL: current i leaves the + node, enters the − node *)
        (match np with Some i -> Coo.add a i row (-1.0) | None -> ());
        (match nm with Some i -> Coo.add a i row 1.0 | None -> ())
    | Netlist.Voltage_source _ ->
        let row = Hashtbl.find branch_index inst.Netlist.name in
        let k = !src_counter in
        incr src_counter;
        (* algebraic row: 0 = v+ − v− − V(t) *)
        (match np with Some i -> Coo.add a row i 1.0 | None -> ());
        (match nm with Some i -> Coo.add a row i (-1.0) | None -> ());
        Mat.set b row k (-1.0);
        (match np with Some i -> Coo.add a i row (-1.0) | None -> ());
        (match nm with Some i -> Coo.add a i row 1.0 | None -> ())
    | Netlist.Current_source _ ->
        let k = !src_counter in
        incr src_counter;
        (* current u flows + → −: extracts u at +, injects at − *)
        (match np with Some i -> Mat.set b i k (Mat.get b i k -. 1.0) | None -> ());
        (match nm with Some i -> Mat.set b i k (Mat.get b i k +. 1.0) | None -> ())
    | Netlist.Vccs { gm; ctrl_plus; ctrl_minus } ->
        (* current gm·(v(c+) − v(c−)) leaves the + node *)
        let cp = node inst.Netlist.name "ctrl+" ctrl_plus in
        let cm = node inst.Netlist.name "ctrl-" ctrl_minus in
        let kcl node_idx sign =
          match node_idx with
          | None -> ()
          | Some i ->
              (match cp with Some j -> Coo.add a i j (-.sign *. gm) | None -> ());
              (match cm with Some j -> Coo.add a i j (sign *. gm) | None -> ())
        in
        kcl np 1.0;
        kcl nm (-1.0)
    | Netlist.Vcvs { gain; ctrl_plus; ctrl_minus } ->
        let row = Hashtbl.find branch_index inst.Netlist.name in
        let cp = node inst.Netlist.name "ctrl+" ctrl_plus in
        let cm = node inst.Netlist.name "ctrl-" ctrl_minus in
        (* algebraic row: 0 = v+ − v− − gain·(v(c+) − v(c−)) *)
        (match np with Some i -> Coo.add a row i 1.0 | None -> ());
        (match nm with Some i -> Coo.add a row i (-1.0) | None -> ());
        (match cp with Some i -> Coo.add a row i (-.gain) | None -> ());
        (match cm with Some i -> Coo.add a row i gain | None -> ());
        (* branch current in the KCL rows, as for a voltage source *)
        (match np with Some i -> Coo.add a i row (-1.0) | None -> ());
        (match nm with Some i -> Coo.add a i row 1.0 | None -> ())
  in
  List.iter each (Netlist.instances net);
  let names = state_names net in
  let probe_row = function
    | State i ->
        if i < 0 || i >= n then invalid_arg "Mna.stamp: state index out of range";
        (i, names.(i))
    | Node_voltage name -> (
        match Netlist.node_index net name with
        | Some i -> (i, "v(" ^ name ^ ")")
        | None ->
            invalid_arg (Printf.sprintf "Mna.stamp: unknown output node %s" name))
    | Branch_current name -> (
        match Hashtbl.find_opt branch_index name with
        | Some i -> (i, "i(" ^ name ^ ")")
        | None ->
            invalid_arg
              (Printf.sprintf "Mna.stamp: %s carries no current state" name))
  in
  let probes =
    match outputs with
    | Some ps -> List.map probe_row ps
    | None ->
        List.init n_nodes (fun i -> (i, names.(i)))
  in
  let q = List.length probes in
  let c = Mat.zeros q n in
  List.iteri (fun r (i, _) -> Mat.set c r i 1.0) probes;
  let output_names = Array.of_list (List.map snd probes) in
  let frac_terms =
    Hashtbl.fold (fun alpha coo acc -> (Coo.to_csr coo, alpha) :: acc) e_frac []
    |> List.sort (fun (_, a1) (_, a2) -> compare a1 a2)
  in
  let terms = (Coo.to_csr e1, 1.0) :: frac_terms in
  let sys =
    Multi_term.make ~state_names:names ~output_names ~terms ~a:(Coo.to_csr a)
      ~b ~c ()
  in
  (sys, Array.of_list srcs)

let has_cpe net =
  List.exists
    (fun inst ->
      match inst.Netlist.element with
      | Netlist.Cpe _ -> true
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _
      | Netlist.Voltage_source _ | Netlist.Current_source _
      | Netlist.Vccs _ | Netlist.Vcvs _ -> false)
    (Netlist.instances net)

let stamp_linear ?outputs net =
  if has_cpe net then
    invalid_arg "Mna.stamp_linear: netlist contains a CPE; use stamp";
  let mt, srcs = stamp ?outputs net in
  match mt.Multi_term.terms with
  | [ { Multi_term.coeff; alpha } ] when alpha = 1.0 ->
      ( Descriptor.make ~state_names:mt.Multi_term.state_names
          ~output_names:mt.Multi_term.output_names ~e:coeff ~a:mt.Multi_term.a
          ~b:mt.Multi_term.b ~c:mt.Multi_term.c (),
        srcs )
  | _ -> assert false

let stamp_fractional ?outputs net =
  let dynamic_orders =
    List.filter_map
      (fun inst ->
        match inst.Netlist.element with
        | Netlist.Cpe { alpha; _ } -> Some alpha
        | Netlist.Capacitor _ | Netlist.Inductor _ -> Some 1.0
        | Netlist.Resistor _ | Netlist.Voltage_source _
        | Netlist.Current_source _ | Netlist.Vccs _ | Netlist.Vcvs _ -> None)
      (Netlist.instances net)
  in
  match List.sort_uniq compare dynamic_orders with
  | [ alpha ] when alpha <> 1.0 ->
      let mt, srcs = stamp ?outputs net in
      (* terms = [(E1 = empty, 1.0); (Eα, α)] — drop the empty E1 *)
      let non_empty =
        List.filter
          (fun { Multi_term.coeff; _ } -> Csr.nnz coeff > 0)
          mt.Multi_term.terms
      in
      (match non_empty with
      | [ { Multi_term.coeff; alpha = a } ] when a = alpha ->
          Some
            ( Descriptor.make ~state_names:mt.Multi_term.state_names
                ~output_names:mt.Multi_term.output_names ~e:coeff
                ~a:mt.Multi_term.a ~b:mt.Multi_term.b ~c:mt.Multi_term.c (),
              alpha,
              srcs )
      | _ -> None)
  | _ -> None
