open Opm_numkit
open Opm_core

(** DC operating point.

    The steady state of [E d^α x = A x + B u] under constant input
    [u₀] has [d^α x = 0], hence [x_dc = −A^{−1} B u₀]. For circuit
    MNA systems this is the classical DC solve (capacitors open,
    inductors shorted, which is exactly what dropping the [E] term
    does). *)

val outputs_at : Descriptor.t -> u0:Vec.t -> Vec.t
(** [C · x_dc]. Raises [Invalid_argument] unless [u0] has one entry
    per system input. *)
