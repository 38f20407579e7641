(** Truncated formal power series.

    The paper's fractional differential matrix is
    [D^α = (2/h)^α · ρ_{α,m}(Q_m)] where [ρ_{α,m}] is the degree-[m−1]
    truncation of [((1−q)/(1+q))^α] (eq. 21–23). Since [Q_m^m = 0], the
    truncation is *exact* in the matrix algebra. A series is stored as a
    coefficient array [c.(k)] of [q^k], lowest degree first. *)

type t = float array

val binomial_product : float -> float -> int -> t
(** [binomial_product a b n] are the first [n] coefficients of
    [(1−q)^a · (1+q)^b], by the three-term recurrence
    [(k+1)·c_{k+1} = (b−a)·c_k + (k−1−a−b)·c_{k−1}] ([c₀ = 1],
    [c₁ = b−a]) that the product's differential equation
    [(1−q²)·f' = ((b−a) − (a+b)·q)·f] gives: [O(n)]. Integer exponents
    give exact integer coefficients (below [2⁵³]), so a polynomial
    product ends in exact zeros. *)

val one_minus_over_one_plus_pow : float -> int -> t
(** [one_minus_over_one_plus_pow alpha n] are the first [n] coefficients
    of [((1−q)/(1+q))^α] — the paper's [ρ_{α,m}] without the [(2/h)^α]
    prefactor: {!binomial_product}[ α (−α) n], whose recurrence reads
    [(k+1)·c_{k+1} = (k−1)·c_{k−1} − 2α·c_k]. For [α = 3/2], [n = 4] this
    yields [1; −3; 4.5; −5.5] (paper eq. 23). *)
