open Opm_numkit
open Opm_sparse

(** Multi-term (fractional) differential systems

    [Σ_k E_k · d^{α_k} x / dt^{α_k} = A x + B · d^r u / dt^r],  [y = C x].

    This generalises every system class in the paper:
    - ODE/DAE (§III): one term, [α = 1];
    - fractional (§IV, eq. 19): one term, fractional [α];
    - high-order (§IV, "special cases of FDEs"): terms with integer
      orders, e.g. the second-order NA power-grid model of Table II
      ([M₂ ẍ + M₁ ẋ = A x + B u̇] with [r = 1], since nodal analysis
      drives the grid with the *derivative* of the load currents). *)

type term = { coeff : Csr.t; alpha : float }

type t = {
  terms : term list;  (** left-hand differential terms, [alpha > 0] *)
  a : Csr.t;  (** right-hand state coupling *)
  b : Mat.t;
  c : Mat.t;
  input_order : int;  (** [r]: the input enters as [d^r u/dt^r] *)
  state_names : string array;
  output_names : string array;
}

val make :
  ?input_order:int ->
  ?state_names:string array ->
  ?output_names:string array ->
  terms:(Csr.t * float) list ->
  a:Csr.t ->
  b:Mat.t ->
  c:Mat.t ->
  unit ->
  t
(** Validates dimensions, [input_order >= 0] (default [0]) and that each
    [alpha > 0]. *)

val of_linear : Descriptor.t -> t
(** [E ẋ = A x + B u] as a one-term system. *)

val of_fractional : alpha:float -> Descriptor.t -> t
(** [E d^α x = A x + B u]. *)

val second_order :
  ?input_order:int ->
  ?state_names:string array ->
  ?output_names:string array ->
  m2:Csr.t ->
  m1:Csr.t ->
  m0:Csr.t ->
  b:Mat.t ->
  c:Mat.t ->
  unit ->
  t
(** [M₂ ẍ + M₁ ẋ + M₀ x = B d^r u/dt^r] — note [M₀] moves to the right
    as [A = −M₀]. *)

val order : t -> int

val input_count : t -> int
