open Opm_signal

type element =
  | Resistor of float
  | Capacitor of float
  | Inductor of float
  | Cpe of { q : float; alpha : float }
  | Voltage_source of Source.t
  | Current_source of Source.t
  | Vccs of { gm : float; ctrl_plus : string; ctrl_minus : string }
  | Vcvs of { gain : float; ctrl_plus : string; ctrl_minus : string }

type instance = {
  name : string;
  plus : string;
  minus : string;
  element : element;
}

type t = {
  mutable rev_instances : instance list;
  designators : Name_index.t;  (* case-folded, SPICE convention *)
  nodes : Name_index.t;  (* a node's index is its first appearance *)
}

let create () =
  {
    rev_instances = [];
    designators = Name_index.create ~fold:true;
    nodes = Name_index.create ~fold:false;
  }

let is_ground name =
  match String.length name with
  | 1 -> name.[0] = '0'
  | 3 ->
      Char.lowercase_ascii name.[0] = 'g'
      && Char.lowercase_ascii name.[1] = 'n'
      && Char.lowercase_ascii name.[2] = 'd'
  | _ -> false

let validate inst =
  let positive what x =
    if x <= 0.0 || not (Float.is_finite x) then
      invalid_arg
        (Printf.sprintf "Netlist.add: %s: %s must be positive (got %g)"
           inst.name what x)
  in
  let finite what x =
    if not (Float.is_finite x) then
      invalid_arg
        (Printf.sprintf "Netlist.add: %s: %s must be finite" inst.name what)
  in
  (match inst.element with
  | Resistor r -> positive "resistance" r
  | Capacitor c -> positive "capacitance" c
  | Inductor l -> positive "inductance" l
  | Cpe { q; alpha } ->
      positive "CPE coefficient" q;
      positive "CPE order" alpha
  | Vccs { gm; _ } -> finite "transconductance" gm
  | Vcvs { gain; _ } -> finite "gain" gain
  | Voltage_source _ | Current_source _ -> ());
  if is_ground inst.plus && is_ground inst.minus then
    invalid_arg
      (Printf.sprintf "Netlist.add: %s connects ground to ground" inst.name)

let add t inst =
  validate inst;
  if Name_index.find t.designators inst.name >= 0 then
    invalid_arg (Printf.sprintf "Netlist.add: duplicate designator %s" inst.name);
  Name_index.add t.designators inst.name;
  let register node =
    if (not (is_ground node)) && Name_index.find t.nodes node < 0 then
      Name_index.add t.nodes node
  in
  register inst.plus;
  register inst.minus;
  (match inst.element with
  | Vccs { ctrl_plus; ctrl_minus; _ } | Vcvs { ctrl_plus; ctrl_minus; _ } ->
      register ctrl_plus;
      register ctrl_minus
  | Resistor _ | Capacitor _ | Inductor _ | Cpe _ | Voltage_source _
  | Current_source _ -> ());
  t.rev_instances <- inst :: t.rev_instances

let of_list insts =
  let t = create () in
  List.iter (add t) insts;
  t

let instances t = List.rev t.rev_instances

let node_names t = Name_index.names t.nodes

let node_index t name =
  if is_ground name then None
  else match Name_index.find t.nodes name with -1 -> None | i -> Some i

let node_count t = Name_index.length t.nodes

let find t name =
  List.find_opt (fun inst -> inst.name = name) t.rev_instances

let r name plus minus value = { name; plus; minus; element = Resistor value }
let c name plus minus value = { name; plus; minus; element = Capacitor value }
let l name plus minus value = { name; plus; minus; element = Inductor value }

let cpe name plus minus ~q ~alpha =
  { name; plus; minus; element = Cpe { q; alpha } }

let v name plus minus src = { name; plus; minus; element = Voltage_source src }
let i name plus minus src = { name; plus; minus; element = Current_source src }

let vccs name plus minus ~ctrl:(ctrl_plus, ctrl_minus) ~gm =
  { name; plus; minus; element = Vccs { gm; ctrl_plus; ctrl_minus } }

let vcvs name plus minus ~ctrl:(ctrl_plus, ctrl_minus) ~gain =
  { name; plus; minus; element = Vcvs { gain; ctrl_plus; ctrl_minus } }

let source_to_string = function
  | Source.Dc v -> Printf.sprintf "dc %.17g" v
  | Source.Step { amplitude; delay } ->
      Printf.sprintf "step(%.17g, %.17g)" amplitude delay
  | Source.Pulse { low; high; delay; width; period } ->
      let period = if Float.is_finite period then period else 0.0 in
      Printf.sprintf "pulse(%.17g %.17g %.17g %.17g %.17g)" low high delay
        width period
  | Source.Sine { amplitude; freq_hz; phase; offset } ->
      Printf.sprintf "sin(%.17g %.17g %.17g %.17g)" offset amplitude freq_hz
        phase
  | Source.Exp_decay { amplitude; tau } ->
      Printf.sprintf "exp(%.17g %.17g)" amplitude tau
  | Source.Ramp { slope; delay } -> Printf.sprintf "ramp(%.17g %.17g)" slope delay
  | Source.Pwl points ->
      let pts =
        List.map (fun (t, v) -> Printf.sprintf "%.17g %.17g" t v) points
      in
      Printf.sprintf "pwl(%s)" (String.concat ", " pts)
  | Source.Fn _ ->
      invalid_arg "Netlist.instance_to_line: Fn sources have no syntax"

let instance_to_line inst =
  let { name; plus; minus; element } = inst in
  match element with
  | Resistor r -> Printf.sprintf "%s %s %s %.17g" name plus minus r
  | Capacitor c -> Printf.sprintf "%s %s %s %.17g" name plus minus c
  | Inductor l -> Printf.sprintf "%s %s %s %.17g" name plus minus l
  | Cpe { q; alpha } ->
      Printf.sprintf "%s %s %s q=%.17g alpha=%.17g" name plus minus q alpha
  | Voltage_source s ->
      Printf.sprintf "%s %s %s %s" name plus minus (source_to_string s)
  | Current_source s ->
      Printf.sprintf "%s %s %s %s" name plus minus (source_to_string s)
  | Vccs { gm; ctrl_plus; ctrl_minus } ->
      Printf.sprintf "%s %s %s %s %s %.17g" name plus minus ctrl_plus
        ctrl_minus gm
  | Vcvs { gain; ctrl_plus; ctrl_minus } ->
      Printf.sprintf "%s %s %s %s %s %.17g" name plus minus ctrl_plus
        ctrl_minus gain

let to_string t =
  let lines = List.map instance_to_line (instances t) in
  String.concat "\n" (lines @ [ ".end"; "" ])
