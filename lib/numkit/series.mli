(** Truncated formal power series.

    The paper's fractional differential matrix is
    [D^α = (2/h)^α · ρ_{α,m}(Q_m)] where [ρ_{α,m}] is the degree-[m−1]
    truncation of [((1−q)/(1+q))^α] (eq. 21–23). Since [Q_m^m = 0], the
    truncation is *exact* in the matrix algebra. A series is stored as a
    coefficient array [c.(k)] of [q^k], lowest degree first; arithmetic
    keeps the common truncation length. *)

type t = float array

val truncate : int -> t -> t
(** Keep the first [n] coefficients, padding with zeros if shorter. *)

val mul : t -> t -> t
(** Cauchy product truncated to [min] of the operand lengths. Each
    coefficient sums [a.(i)·b.(k−i)] in ascending [i], skipping the
    exact zeros of [a] (bit-identical to the full sum for finite [b]);
    [O(n·(last nonzero of a))]. *)

val binomial_series : float -> int -> t
(** [binomial_series alpha n] are the first [n] coefficients of
    [(1 + q)^α = Σ_k C(α,k) q^k] with generalised binomial coefficients. *)

val one_minus_over_one_plus_pow : float -> int -> t
(** [one_minus_over_one_plus_pow alpha n] are the first [n] coefficients
    of [((1−q)/(1+q))^α] — the paper's [ρ_{α,m}] without the [(2/h)^α]
    prefactor. For [α = 3/2], [n = 4] this yields [1; −3; 4.5; −5.5]
    (paper eq. 23). *)

val eval_nilpotent : t -> Mat.t -> Mat.t
(** [eval_nilpotent c q] is [Σ_k c.(k) · q^k] by Horner's rule — exact
    when [q] is nilpotent of index ≤ [Array.length c]. *)

val eval : t -> float -> float
(** Scalar Horner evaluation. *)
