open Opm_numkit

(** Coordinate-format builder for sparse matrices.

    The MNA stamping code accumulates element stamps as (row, col, value)
    triplets; duplicates are summed on conversion — exactly SPICE's
    "stamping" semantics. *)

type t

val create : rows:int -> cols:int -> t

val add : t -> int -> int -> float -> unit
(** [add t i j v] accumulates [v] at [(i, j)]. Bounds-checked. *)

val rows : t -> int

val cols : t -> int

val entry_count : t -> int
(** Number of triplets added so far (before duplicate merging). *)

val to_csr : t -> Csr.t
(** Sort by (row, column), sum duplicates, drop entries that sum to
    zero. Duplicates are summed in insertion order, starting from
    [0.0], so the result is a function of the order of {!add} calls.
    The sort is two stable counting passes: time and memory are linear
    in [rows + cols + entry_count]. *)

val of_dense : Mat.t -> t
