open Opm_core

(** Modified nodal analysis.

    Stamps a netlist into the descriptor form the paper simulates:

    [E₁ ẋ + Σ_α E_α d^α x/dt^α = A x + B u],   [y = C x]

    with state vector [x = (node voltages, inductor currents,
    voltage-source currents)]. Capacitors stamp into [E₁]; constant-
    phase elements stamp their [q] into the [E_α] of their order [α]
    (one extra term per distinct CPE order, grouped automatically);
    resistors stamp [−1/R] into [A]; inductor and voltage-source
    branches add current variables and their defining rows ([E] rows
    for [L], algebraic rows for [V] — the DAE case of the paper).

    Inputs [u] are the independent sources in order of appearance.
    Sign conventions (SPICE): positive source current flows from the
    [+] node through the source to the [−] node. *)

type probe =
  | Node_voltage of string
  | Branch_current of string  (** an inductor or voltage source *)
  | State of int  (** raw state index *)

val stamp : ?outputs:probe list -> Netlist.t -> Multi_term.t * Opm_signal.Source.t array
(** General stamping; handles any mix of R/L/C/CPE/V/I. Default
    outputs: every node voltage. Raises [Invalid_argument] for probes
    that do not exist. *)

val stamp_linear :
  ?outputs:probe list -> Netlist.t -> Descriptor.t * Opm_signal.Source.t array
(** Stamping restricted to R/L/C/V/I (first-order descriptor, paper
    eq. 9). Raises [Invalid_argument] if the netlist contains a CPE. *)

val stamp_fractional :
  ?outputs:probe list ->
  Netlist.t ->
  (Descriptor.t * float * Opm_signal.Source.t array) option
(** When the netlist's only dynamic elements are CPEs of one common
    order [α] (plus resistors and sources), return the single-term
    fractional descriptor [(sys, α, sources)] of paper eq. (19);
    [None] if the netlist does not have that shape. *)
