open Opm_signal

(** Circuit netlists.

    Nodes are referred to by name; ["0"] and ["gnd"] are the ground
    node. Elements cover the paper's system classes: R/L/C for ordinary
    RLC circuits, independent sources with arbitrary waveforms, and the
    constant-phase element (CPE, a "fractional capacitor" with branch
    relation [i = Q · d^α v / dt^α]) — the circuit-level origin of
    fractional differential models such as supercapacitors and lossy
    transmission lines. *)

type element =
  | Resistor of float  (** ohms *)
  | Capacitor of float  (** farads *)
  | Inductor of float  (** henries *)
  | Cpe of { q : float; alpha : float }
      (** constant-phase element: [i = q · d^α v/dt^α], [0 < alpha] *)
  | Voltage_source of Source.t
  | Current_source of Source.t
      (** positive current flows from the + node through the source to
        the − node (SPICE convention) *)
  | Vccs of { gm : float; ctrl_plus : string; ctrl_minus : string }
      (** SPICE G element: current [gm·(v(ctrl+) − v(ctrl−))] from the
        + node through the source to the − node *)
  | Vcvs of { gain : float; ctrl_plus : string; ctrl_minus : string }
      (** SPICE E element:
        [v(+) − v(−) = gain·(v(ctrl+) − v(ctrl−))]; adds a branch
        current like an independent voltage source *)

type instance = {
  name : string;  (** unique designator, e.g. "R1" *)
  plus : string;  (** + node *)
  minus : string;  (** − node *)
  element : element;
}

type t
(** A mutable netlist under construction (the usual EDA builder
    pattern: stamp elements in, then extract matrices). *)

val create : unit -> t

val add : t -> instance -> unit
(** Raises [Invalid_argument] on duplicate designators (compared
    case-insensitively, matching SPICE convention), non-positive
    R/L/C/CPE values, or a ground-to-ground connection. *)

val of_list : instance list -> t

val instances : t -> instance list
(** In insertion order. *)

val node_names : t -> string array
(** Non-ground nodes, in first-appearance order. *)

val node_index : t -> string -> int option
(** Index into {!node_names}; [None] for ground. *)

val node_count : t -> int

val is_ground : string -> bool

val find : t -> string -> instance option

(** Constructors for the common elements (node order: plus, minus). *)

val r : string -> string -> string -> float -> instance
val c : string -> string -> string -> float -> instance
val l : string -> string -> string -> float -> instance
val cpe : string -> string -> string -> q:float -> alpha:float -> instance
val v : string -> string -> string -> Source.t -> instance
val i : string -> string -> string -> Source.t -> instance

val vccs :
  string -> string -> string -> ctrl:string * string -> gm:float -> instance

val vcvs :
  string -> string -> string -> ctrl:string * string -> gain:float -> instance

val instance_to_line : instance -> string
(** One netlist line in the {!Parser} grammar. [Fn] sources cannot be
    printed and raise [Invalid_argument]. *)

val to_string : t -> string
(** The whole netlist in parser syntax (ends with [".end"]). Parsing
    the output reproduces the netlist (see the roundtrip tests). *)
