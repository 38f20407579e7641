open Opm_numkit
open Opm_sparse

(** Descriptor state-space systems
    [E · d^α x/dt^α = A x + B u], [y = C x] — the system class of the
    paper (eq. 9 with [α = 1], eq. 19 for fractional [α]).

    [E] may be singular (a DAE, e.g. from MNA with voltage sources).
    [E] and [A] are kept sparse because circuit matrices have [O(n)]
    nonzeros — that is what gives OPM its [O(n^β m)] complexity; [B]
    and [C] are dense but narrow ([p] inputs, [q] outputs). *)

type t = {
  e : Csr.t;  (** [n×n] *)
  a : Csr.t;  (** [n×n] *)
  b : Mat.t;  (** [n×p] *)
  c : Mat.t;  (** [q×n] *)
  state_names : string array;  (** length [n] *)
  output_names : string array;  (** length [q] *)
}

val make :
  ?state_names:string array ->
  ?output_names:string array ->
  e:Csr.t ->
  a:Csr.t ->
  b:Mat.t ->
  c:Mat.t ->
  unit ->
  t
(** Validates all dimensions. Default names are ["x%d"] / ["y%d"]. *)

val of_dense :
  ?state_names:string array ->
  ?output_names:string array ->
  e:Mat.t ->
  a:Mat.t ->
  b:Mat.t ->
  c:Mat.t ->
  unit ->
  t

val order : t -> int
(** State dimension [n]. *)

val input_count : t -> int

val output_count : t -> int

val e_dense : t -> Mat.t

val a_dense : t -> Mat.t

val scalar : e:float -> a:float -> b:float -> t
(** 1-state system [e·d^α x = a·x + b·u], [y = x] — handy in tests. *)

val random_stable : ?seed:int -> n:int -> p:int -> q:int -> unit -> t
(** Random dense system with [E = I] and [A] strictly diagonally
    dominant negative — a stable ODE for ablation benchmarks. *)
