open Opm_core

(** Pole (natural-frequency) analysis of descriptor systems.

    For [E ẋ = A x + B u] with invertible [E] the poles are the
    eigenvalues of [E^{−1}A]. For a singular [E] (MNA with voltage
    sources, i.e. a DAE) the finite poles are recovered by shifting:
    [λ] is a finite generalised eigenvalue of [(A, E)] iff
    [μ = 1/(λ − σ)] is an eigenvalue of [(A − σE)^{−1} E] for any shift
    [σ] that is not itself a pole; infinite poles map to [μ = 0] and are
    discarded. *)

val of_descriptor : ?shift:float -> Descriptor.t -> Complex.t array
(** Finite poles (rad/s). [shift] is the spectral shift [σ] used for
    singular pencils (default 1.0; raise it above the system's fastest
    pole magnitude if a [Singular] escape occurs). Eigenvalues with
    [|μ|] below [1e-9·max|μ|] are treated as infinite and dropped. *)

val is_stable : ?shift:float -> ?margin:float -> Descriptor.t -> bool
(** All finite poles satisfy [Re λ <= −margin] (default [margin = 0]). *)

val fractional_stability_angle : alpha:float -> Complex.t -> bool
(** Matignon's criterion for the fractional system
    [d^α x = A x]: the mode [λ] is stable iff [|arg λ| > α·π/2].
    Apply to each pole of the [α]-order system. *)
