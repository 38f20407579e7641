open Opm_numkit
open Opm_sparse
open Opm_core

let stamp ?outputs net =
  let n = Netlist.node_count net in
  let c = Coo.create ~rows:n ~cols:n in
  let g = Coo.create ~rows:n ~cols:n in
  let gamma = Coo.create ~rows:n ~cols:n in
  let srcs = ref [] in
  let stamp_pair coo np nm value =
    (match np with Some i -> Coo.add coo i i value | None -> ());
    (match nm with Some i -> Coo.add coo i i value | None -> ());
    match (np, nm) with
    | Some i, Some j ->
        Coo.add coo i j (-.value);
        Coo.add coo j i (-.value)
    | Some _, None | None, Some _ | None, None -> ()
  in
  let instances = Netlist.instances net in
  let p =
    List.fold_left
      (fun p inst ->
        match inst.Netlist.element with
        | Netlist.Current_source _ -> p + 1
        | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Inductor _
        | Netlist.Cpe _ | Netlist.Voltage_source _ | Netlist.Vccs _
        | Netlist.Vcvs _ -> p)
      0 instances
  in
  let b = Mat.zeros n p in
  let src_count = ref 0 in
  let each inst =
    let np = Netlist.node_index net inst.Netlist.plus in
    let nm = Netlist.node_index net inst.Netlist.minus in
    match inst.Netlist.element with
    | Netlist.Resistor r -> stamp_pair g np nm (1.0 /. r)
    | Netlist.Capacitor cv -> stamp_pair c np nm cv
    | Netlist.Inductor l -> stamp_pair gamma np nm (1.0 /. l)
    | Netlist.Current_source s ->
        let k = !src_count in
        incr src_count;
        srcs := s :: !srcs;
        (match np with Some i -> Mat.set b i k (Mat.get b i k -. 1.0) | None -> ());
        (match nm with Some i -> Mat.set b i k (Mat.get b i k +. 1.0) | None -> ())
    | Netlist.Voltage_source _ ->
        invalid_arg
          (Printf.sprintf
             "Na2.stamp: %s: voltage sources are not expressible in \
              second-order NA; use Mna.stamp"
             inst.Netlist.name)
    | Netlist.Cpe _ ->
        invalid_arg
          (Printf.sprintf "Na2.stamp: %s: CPEs need Mna.stamp" inst.Netlist.name)
    | Netlist.Vccs { gm; ctrl_plus; ctrl_minus } ->
        (* resistive-like, fits NA directly (non-symmetric G stamp) *)
        let cp = Netlist.node_index net ctrl_plus in
        let cm = Netlist.node_index net ctrl_minus in
        let kcl node_idx sign =
          match node_idx with
          | None -> ()
          | Some i ->
              (match cp with Some j -> Coo.add g i j (sign *. gm) | None -> ());
              (match cm with Some j -> Coo.add g i j (-.sign *. gm) | None -> ())
        in
        kcl np 1.0;
        kcl nm (-1.0)
    | Netlist.Vcvs _ ->
        invalid_arg
          (Printf.sprintf
             "Na2.stamp: %s: VCVS adds a branch current; use Mna.stamp"
             inst.Netlist.name)
  in
  List.iter each instances;
  let names = Array.map (fun node -> "v(" ^ node ^ ")") (Netlist.node_names net) in
  let probes =
    match outputs with
    | Some ps ->
        List.map
          (fun probe ->
            match probe with
            | Mna.Node_voltage name -> (
                match Netlist.node_index net name with
                | Some i -> (i, "v(" ^ name ^ ")")
                | None ->
                    invalid_arg
                      (Printf.sprintf "Na2.stamp: unknown output node %s" name))
            | Mna.State i ->
                if i < 0 || i >= n then
                  invalid_arg "Na2.stamp: state index out of range";
                (i, names.(i))
            | Mna.Branch_current _ ->
                invalid_arg
                  "Na2.stamp: branch currents are not states of the NA model")
          ps
    | None ->
        Array.to_list (Array.mapi (fun i name -> (i, name)) names)
  in
  let q = List.length probes in
  let cmat = Mat.zeros q n in
  List.iteri (fun r (i, _) -> Mat.set cmat r i 1.0) probes;
  let output_names = Array.of_list (List.map snd probes) in
  let sys =
    Multi_term.second_order ~input_order:1 ~state_names:names ~output_names
      ~m2:(Coo.to_csr c) ~m1:(Coo.to_csr g) ~m0:(Coo.to_csr gamma)
      ~b ~c:cmat ()
  in
  (sys, Array.of_list (List.rev !srcs))
