(** Dense complex matrices and a complex LU solver.

    The frequency-domain baseline of the paper (Table I's FFT-1/FFT-2)
    solves [((jω)^α E − A) X(jω) = B U(jω)] at every sampled frequency —
    a complex linear system per sample. This module provides exactly the
    kernels that needs, over [Stdlib.Complex]. *)

type t = { rows : int; cols : int; data : Complex.t array }

val zeros : int -> int -> t

val init : int -> int -> (int -> int -> Complex.t) -> t

val of_real : Mat.t -> t

val get : t -> int -> int -> Complex.t

val set : t -> int -> int -> Complex.t -> unit

val sub : t -> t -> t

val scale : Complex.t -> t -> t

val max_abs_diff : t -> t -> float

exception Singular of int

val solve : t -> Complex.t array -> Complex.t array
(** Gaussian elimination with partial pivoting, one-shot. *)

type factor

val factor : t -> factor

val solve_factored : factor -> Complex.t array -> Complex.t array

val jomega_alpha : float -> float -> Complex.t
(** [jomega_alpha omega alpha] is the principal branch of [(jω)^α]:
    [|ω|^α · exp(i · α · (π/2) · sign ω)] (and [0^α = 0] for [α > 0],
    [1] for [α = 0]). This is the fractional Laplace variable evaluated
    on the imaginary axis, as used by the FFT method for FDEs. *)
