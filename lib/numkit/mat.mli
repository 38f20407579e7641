(** Dense row-major matrices of floats.

    The representation is a record carrying the dimensions and a flat
    [float array] in row-major order. Mutating accessors are provided for
    the hot loops of the factorisations; every algebraic operation
    ([add], [mul], …) allocates a fresh matrix. *)

type t = { rows : int; cols : int; data : float array }

val zeros : int -> int -> t

val eye : int -> t
(** Identity matrix. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] has entry [f i j] at row [i], column [j]. *)

val of_arrays : float array array -> t
(** Rows given as arrays; all rows must have equal length. *)

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val dims : t -> int * int

val copy : t -> t

val transpose : t -> t

val row : t -> int -> Vec.t

val col : t -> int -> Vec.t

val set_col : t -> int -> Vec.t -> unit

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product. Raises [Invalid_argument] on inner-dimension
    mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t

val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec a x] is [transpose a * x] without forming the transpose. *)

val kron : t -> t -> t
(** Kronecker product [a ⊗ b]. *)

val pow : t -> int -> t
(** Non-negative integer matrix power by repeated squaring. *)

val norm_inf : t -> float
(** Maximum absolute row sum. *)

val max_abs_diff : t -> t -> float

val approx_equal : ?tol:float -> t -> t -> bool

val is_upper_triangular : ?tol:float -> t -> bool
