(** Dense LU factorisation with partial pivoting.

    Factors a square matrix as [P A = L U] where [P] is a row permutation,
    [L] unit lower triangular and [U] upper triangular. The factorisation
    is stored packed (L strictly below the diagonal, U on and above) plus
    the pivot permutation, so one factorisation can be reused for many
    right-hand sides — the pattern OPM's column-by-column solver relies
    on when the time step is constant. *)

type t

exception Singular of int
(** [Singular k] — a zero (or numerically negligible) pivot was met at
    elimination step [k]; the matrix is singular to working precision. *)

val factor : Mat.t -> t
(** Raises [Invalid_argument] if the matrix is not square and
    {!Singular} if it is singular. *)

val factor_profile : Mat.t -> t
(** The same elimination as {!factor}, but each row update stops at
    the pivot row's last nonzero column, tracked through pivoting and
    fill-in. On a matrix whose rows end near the diagonal — such as a
    Kronecker operator ordered so that a sparse coupling matrix gives
    it a block-banded profile — this skips the zero tail of every row.
    The factors equal {!factor}'s up to the sign of exact zeros.

    It factors in place: the argument is taken over and overwritten
    with the packed factors (also when {!Singular} is raised), so the
    caller must not read it afterwards. This saves the n² copy that
    {!factor} makes. *)

val solve : t -> Vec.t -> Vec.t
(** [solve lu b] solves [A x = b] for the factored [A]. *)

val solve_transpose : t -> Vec.t -> Vec.t
(** [solve_transpose lu b] solves [Aᵀ x = b] from the same factors
    ([A = P⁻¹LU ⇒ Aᵀ = UᵀLᵀP]); needed by the 1-norm condition
    estimator. *)

val solve_mat : t -> Mat.t -> Mat.t
(** Solve with a matrix right-hand side (column by column). *)

val det : t -> float

val solve_dense : Mat.t -> Vec.t -> Vec.t
(** One-shot [factor] + [solve]. *)

val inverse : Mat.t -> Mat.t

val cond_estimate : Mat.t -> float
(** Rough condition-number estimate [‖A‖∞ · ‖A⁻¹‖∞] (forms the inverse;
    intended for diagnostics on small systems, not hot paths). *)

val inv_norm1_est :
  n:int -> solve:(Vec.t -> Vec.t) -> solve_t:(Vec.t -> Vec.t) -> float
(** Hager/Higham estimate of [‖M⁻¹‖₁] for any operator given as a pair
    of black-box solves with [M] and [Mᵀ] (at most 5 of each). Shared by
    the dense and sparse [cond_est]. *)

val cond_est : t -> float
(** Hager/Higham 1-norm condition estimate [‖A‖₁ · est(‖A⁻¹‖₁)] from
    the existing factors — a handful of triangular solves, no inverse.
    Typically within a small factor of the true [κ₁(A)] (it is a lower
    bound on [‖A⁻¹‖₁] by construction). The estimate is computed on
    first call and cached on the factor, so cached factorisations
    (e.g. {i Engine.Factor_cache} entries) carry their estimate for
    free thereafter. *)
