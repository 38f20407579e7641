(** Special functions used as analytic references for fractional systems.

    The textbook solution of the scalar relaxation FDE
    [d^α x/dt^α = −λ x + …] involves the Mittag-Leffler function
    [E_{α,β}]; the tests validate the OPM fractional solver against it.
    The gamma function is also needed by the Grünwald–Letnikov baseline
    weights. *)

val lgamma : float -> float
(** Log-gamma for [x > 0] (Lanczos approximation, ~15 significant
    digits). *)

val gamma : float -> float
(** Gamma on the real line, via the reflection formula for [x <= 0].
    Returns [nan] on non-positive integers. *)

val erf : float -> float

val erfc : float -> float
(** Complementary error function via the regularised incomplete gamma
    functions (full double precision). *)

val gammp : float -> float -> float
(** Regularised lower incomplete gamma [P(a, x)], [a > 0], [x >= 0]. *)

val gammq : float -> float -> float
(** Regularised upper incomplete gamma [Q(a, x) = 1 − P(a, x)]. *)

val mittag_leffler : ?beta:float -> alpha:float -> float -> float
(** [mittag_leffler ~alpha z] is [E_{α,β}(z) = Σ_k z^k / Γ(αk + β)]
    (default [β = 1]), for real [z]. Negative [z] with [0 < α < 1]: the
    inverse Laplace transform on a parabolic Hankel contour (≈ 1e-13,
    no cancellation). Negative [z] with [1 ≤ α < 2] and
    [|z|^{1/α} > 20]: the asymptotic expansion plus, for [α > 1], the
    residues of its two poles; next to that switch it keeps ≈ 1e-8
    relative. Otherwise the power series with compensated summation.
    Raises [Invalid_argument] for [alpha <= 0]. *)

val ml_relaxation : alpha:float -> lambda:float -> float -> float
(** [ml_relaxation ~alpha ~lambda t] is [E_α(−λ t^α)] — the solution of
    [d^α x/dt^α = −λ x], [x(0) = 1] (Caputo, zero history). *)

val ml_step_response : alpha:float -> lambda:float -> float -> float
(** Solution of [d^α x/dt^α = −λ x + λ·1(t)], [x(0) = 0]:
    [1 − E_α(−λ t^α)]. The fractional analogue of the RC step
    response. *)
