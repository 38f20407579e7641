open Opm_numkit
open Opm_core

(** Small-signal frequency-domain (AC) analysis of (fractional)
    descriptor systems.

    The transfer matrix of [E d^α x = A x + B u], [y = C x] is
    [G(s) = C (s^α E − A)^{−1} B] evaluated on [s = jω] — the quantity
    the paper's frequency-domain baseline samples; exposing it directly
    gives Bode data and a cross-check between time- and frequency-domain
    solvers (the sine steady state must match the AC gain/phase). *)

type point = {
  omega : float;  (** rad/s *)
  response : Cmat.t;  (** [q×p] complex transfer matrix at this ω *)
}

val transfer : ?alpha:float -> Descriptor.t -> float -> Cmat.t
(** [transfer ~alpha sys omega] is [G(jω)] (default [alpha = 1]).
    Raises [Cmat.Singular] if [jω] hits a pole exactly. *)

val sweep :
  ?pool:Opm_parallel.Pool.t ->
  ?alpha:float ->
  omega_min:float ->
  omega_max:float ->
  points:int ->
  Descriptor.t ->
  point list
(** Logarithmically spaced sweep, [points >= 2],
    [0 < omega_min < omega_max]. The independent per-frequency solves
    run on [pool] (default: the shared {!Opm_parallel.Pool.global}
    pool, sized by [OPM_DOMAINS]); results are bit-identical to the
    serial sweep for any pool size. *)

val gain_db : point -> input:int -> output:int -> float
(** [20·log₁₀ |G_{output,input}(jω)|]. *)

val phase_deg : point -> input:int -> output:int -> float
