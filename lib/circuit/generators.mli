open Opm_signal

(** Parametric circuit generators used by the examples, tests and the
    benchmark workloads. *)

val rc_ladder : ?r:float -> sections:int -> input:Source.t -> unit -> Netlist.t
(** Classic RC ladder: [V_in — R — n1 — R — n2 … ], each internal node
    with 1 nF to ground. Default [r = 1 kΩ]. The input is a voltage
    source at node ["in"]. *)

val rc_two_time_scale : input:Source.t -> unit -> Netlist.t
(** Two cascaded RC stages with time constants 1 µs and 100 µs — the
    stiff benchmark for the adaptive step ablation. *)

val random_rlc : ?seed:int -> nodes:int -> input:Source.t -> unit -> Netlist.t
(** Random passive RLC network for differential testing, deterministic
    in [seed] (default 0): a resistor chain over [nodes] nodes with a
    capacitor to ground at {e every} node, a load resistor, and a few
    seed-dependent extra couplings (cross resistors, inductors to
    ground). Driven by a current source into node ["n1"], so the
    stamped [E] is always invertible — the generated systems are
    accepted by {!Opm_transient.Exact_lti} — and all elements are
    positive and passive, so they are stable. Element values are
    log-uniform: R ∈ [0.5, 10] kΩ, C ∈ [0.5, 2] nF, L ∈ [0.1, 1] mH. *)

val cpe_charging :
  ?r:float -> ?q:float -> ?alpha:float -> input:Source.t -> unit -> Netlist.t
(** Supercapacitor-style charging circuit: voltage source, series
    resistor, CPE to ground (defaults [r = 1 kΩ], [q = 1 µF·s^{α−1}],
    [α = 0.5]). Its node equation is the scalar relaxation FDE whose
    exact solution is a Mittag-Leffler function. *)
