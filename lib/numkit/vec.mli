(** Dense vectors of floats.

    A vector is a plain [float array]; this module gathers the numerical
    helpers the rest of the library needs (BLAS-1 style operations, norms,
    comparisons with tolerances). All functions are pure unless suffixed
    with [_inplace]. *)

type t = float array

val create : int -> float -> t
(** [create n x] is a vector of [n] copies of [x]. *)

val zeros : int -> t

val init : int -> (int -> float) -> t

val copy : t -> t

val dim : t -> int

val of_list : float list -> t

val to_list : t -> float list

val map : (float -> float) -> t -> t

val map2 : (float -> float -> float) -> t -> t -> t
(** Raises [Invalid_argument] on dimension mismatch. *)

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y] in place. *)

val dot : t -> t -> float

val norm2 : t -> float
(** Euclidean norm. *)

val norm_inf : t -> float

val dist2 : t -> t -> float
(** [dist2 x y] is [norm2 (sub x y)] without the intermediate. *)

val max_abs_diff : t -> t -> float

val approx_equal : ?tol:float -> t -> t -> bool
(** Component-wise comparison with absolute tolerance [tol]
    (default [1e-9]); also requires equal dimensions. *)

val pp : Format.formatter -> t -> unit
