open Opm_numkit

(** Walsh functions — the paper's first-listed alternative basis (§I):
    "a set of low- to high-frequency basis functions … if we are only
    interested in the overall trend of the response waveforms, Walsh
    function is a better choice."

    Walsh functions on a uniform [m = 2^k] grid are ±1 combinations of
    BPFs; in matrix form [Φ_W = W Φ_B] where [W] is the (sequency-
    ordered) Hadamard matrix. Operational matrices transport by
    similarity: [H_W = W H_B W^{−1}] with [W^{−1} = Wᵀ/m = W/m]. *)

val hadamard : int -> Mat.t
(** Natural (Hadamard-ordered) ±1 matrix of size [m = 2^k].
    Raises [Invalid_argument] unless [m] is a power of two. *)

val walsh_matrix : int -> Mat.t
(** Sequency-ordered Walsh matrix (rows sorted by sign-change count). *)

val fwht : Vec.t -> Vec.t
(** Fast Walsh–Hadamard transform (natural order, unnormalised):
    [y = hadamard m · x] in [O(m log m)]. *)

val sequency_of_row : Mat.t -> int -> int
(** Number of sign changes in a row (its "frequency"). *)

val bpf_to_walsh : Vec.t -> Vec.t
(** Coefficient change of basis: if [f = c_Bᵀ Φ_B] then
    [f = c_Wᵀ Φ_W] with [c_W = (1/m) W c_B] (sequency order). *)

val walsh_to_bpf : Vec.t -> Vec.t
(** Inverse change of basis: [c_B = Wᵀ c_W]. *)

val differential_matrix : Grid.t -> Mat.t
(** [D_W = W D_B W^{−1}] on a uniform power-of-two grid. *)

val truncate_spectrum : keep:int -> Vec.t -> Vec.t
(** Zero all Walsh coefficients above sequency index [keep − 1]: the
    low-pass "overall trend" filter the paper motivates Walsh with. *)
