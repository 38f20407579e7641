open Opm_numkit

(** Haar wavelet basis (another of the paper's alternative bases, §I).

    The [m = 2^k] Haar functions on [[0, t_end)] — scaling function plus
    dyadic wavelets — are, like Walsh functions, an orthogonal ±-valued
    combination of BPFs, so operational matrices transport by the same
    similarity [H_H = T H_B T^{−1}]. Haar's locality makes the truncated
    expansion adapt to sharp local features, complementing Walsh's
    global sequency ordering. *)

val haar_matrix : int -> Mat.t
(** Rows are the (unnormalised, ±1/0-valued) Haar functions sampled on
    the [m] intervals; row 0 is constant 1. [m] must be a power of
    two. *)

val transform : Vec.t -> Vec.t
(** Fast Haar analysis: BPF coefficients → Haar coefficients
    (with the normalisation making {!inverse_transform} exact). *)

val inverse_transform : Vec.t -> Vec.t

val integral_matrix : Grid.t -> Mat.t

val differential_matrix : Grid.t -> Mat.t
