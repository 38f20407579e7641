open Opm_numkit

(** Compressed sparse row matrices (immutable). *)

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;  (** length [rows + 1] *)
  col_ind : int array;  (** length [nnz], column indices, sorted per row *)
  values : float array;  (** length [nnz] *)
}

val nnz : t -> int

val dims : t -> int * int

val zero : rows:int -> cols:int -> t

val eye : int -> t

val get : t -> int -> int -> float
(** Binary search within the row; [0.] for structural zeros. *)

val mul_vec : t -> Vec.t -> Vec.t

val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec a x = aᵀ x] without materialising the transpose. *)

val transpose : t -> t

val scale : float -> t -> t

val add : ?alpha:float -> ?beta:float -> t -> t -> t
(** [add ~alpha ~beta a b = alpha·a + beta·b] (defaults 1.0); symbolic
    union of the patterns. An entry in only one operand is [alpha *. a]
    or [beta *. b], one in both is [(alpha *. a) +. (beta *. b)], and a
    sum that cancels stays an explicit zero: the pattern depends on the
    operands' patterns only, which [Slu.refactor]'s pattern check (and
    with it symbolic reuse) relies on. Allocates only the result. *)

val map : (float -> float) -> t -> t
(** Map over stored values (pattern unchanged). Zero results are kept. *)

val to_dense : t -> Mat.t

val of_dense : ?tol:float -> Mat.t -> t
(** Entries with [|v| <= tol] (default 0.) become structural zeros. *)

val iter : (int -> int -> float -> unit) -> t -> unit

val max_abs_diff : t -> t -> float
(** Over the union pattern (works for different patterns). *)
