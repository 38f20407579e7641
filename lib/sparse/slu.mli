open Opm_numkit

(** Sparse LU factorisation (Gilbert–Peierls left-looking algorithm with
    threshold pivoting) with a symbolic/numeric split.

    This is the [O(n^β)] "matrix-vector solving" primitive of the paper's
    complexity analysis (§IV): circuit matrices [E, A] have [O(n)]
    nonzeros, and OPM factors [d_ii·E − A] once per distinct diagonal
    entry of the operational matrix, then back-solves per column.

    Each column of the factors is computed by a sparse triangular solve
    whose nonzero pattern is found by depth-first search on the graph of
    the already-computed [L] (the classic GP reach), so the work is
    proportional to arithmetic operations, not to [n]. The DFS graph is
    pruned symmetrically (Eisenstat–Liu, as in KLU): once a later pivot
    row shows up in column [k] of [L], the search through [k] skips the
    rows it can also reach through that pivot, so on circuit pencils the
    analysis scans about one [L] entry per factor nonzero instead of
    whole columns over and over. Reach sets, fill and pivots are those
    of the unpruned search; only its visiting order may differ, see
    below.

    Fill is controlled three ways: a symmetric fill-reducing reordering
    ({!Amd} at paper scale, {!Rcm} for small bandwidth-friendly systems,
    picked by the [`Auto] heuristic); *threshold* pivoting — the
    diagonal candidate is kept whenever its magnitude is within
    [pivot_tol] of the column maximum, so the fill-reducing order
    survives; otherwise the column maximum is chosen (stability first);
    and KLU-style *row equilibration* — the factors internally hold
    [R·A] with [R = diag(1/max|row|)], so a badly scaled pencil (an
    inductor-current row's [L/h] next to ±1 incidence entries) still
    keeps its diagonal pivots. Solves compensate for [R], so the API
    is exactly [A x = b]; the scale is recomputed from the values on
    every {!refactor}, preserving the bit-identity contract.

    The [⌈m⌉] pencils [d_ii·E − A] of one OPM solve share one sparsity
    pattern and differ only in values, so the symbolic work — ordering,
    elimination reaches, fill pattern — is computed once by {!analyze}
    and replayed numerically by {!refactor}. A [refactor] on the very
    values that were analyzed reproduces the fresh factorisation bit for
    bit (same operations in the same order).

    {b Bit contract.} [solve] is exactly reproducible: the same matrix
    and right-hand side give the same bits on every run, in any pool
    size, and after a [refactor] on the analyzed values. The order in
    which the analysis eliminates two columns that do not depend on
    each other comes from the DFS post-order. When the pattern is
    structurally symmetric and keeps its diagonal pivots, that order is
    unique, so pruning leaves every bit of [solve] as the unpruned
    search had it. On an unsymmetric pattern that pivots off the
    diagonal, pruning may order independent columns differently, and
    the last bits of [solve] can then move. The reach sets do not, so
    the fill stays the same unless such a last-bit change flips a
    pivot choice. The order of the rows stored within an [L] column is
    not part of the contract. Pruning partitions columns in place, and
    the post-order decides where each row lands. {!solve} updates
    distinct rows per column, so the storage order cannot change its
    bits. {!solve_transpose} sums each column in storage order, so its
    last bits, and those of {!cond_est}, may change whenever the DFS
    does.

    Factor storage is Bigarray ([int32] indices, [float64] values), off
    the OCaml heap, so paper-scale fill (tens of millions of entries at
    n ≈ 100K) adds no GC scan pressure. *)

type t
(** A numeric factorisation; immutable once built (the cached condition
    estimate aside), so concurrent back-solves are safe. *)

type symbolic
(** The value-independent part of a factorisation: ordering, pivot
    sequence, fill patterns, elimination schedule, and the scatter map
    back into the analyzed matrix's value array. *)

type ordering = [ `Amd | `Auto | `Natural | `Rcm ]
(** [`Auto] (the default) picks {!Amd} above a few hundred unknowns and
    {!Rcm} below, where bandwidth ordering's locality wins. *)

exception Singular of int
(** Numerically zero pivot column, reported in the *original* (not
    fill-reduced) ordering so callers can name the offending unknown —
    under [`Amd] and [`Rcm] alike. *)

exception Unstable of int
(** Raised by {!refactor} when the recorded pivot of the named unknown
    (original ordering) has become too small relative to its column —
    the pattern still matches but the values need a fresh {!analyze}. *)

exception Pattern_mismatch
(** Raised by {!refactor} when the matrix's sparsity pattern differs
    from the analyzed one. *)

val analyze : ?ordering:ordering -> ?pivot_tol:float -> Csr.t -> symbolic * t
(** Full factorisation returning both the reusable symbolic object and
    the numeric factors for the given values. Defaults
    [ordering = `Auto], [pivot_tol = 0.1].

    [pivot_tol] must lie in [(0, 1]]: it is the fraction of the column
    maximum a diagonal candidate must reach to be kept, so [1.0] means
    the column maximum always wins — strict partial pivoting, maximum
    stability, no regard for fill — and values near 0 keep the
    fill-reducing order at the cost of stability. Raises
    [Invalid_argument] on non-square input or a [pivot_tol] outside
    [(0, 1]]; raises {!Singular} when no acceptable pivot exists. *)

val refactor : ?stability_tol:float -> symbolic -> Csr.t -> t
(** Numeric-only refactorisation of a matrix with the *exact* sparsity
    pattern that was analyzed (verified; {!Pattern_mismatch} otherwise).
    Replays the recorded elimination schedule with the new values —
    no ordering, no reach DFS, no pattern discovery — so one symbolic
    analysis serves every pencil of a solve. On the values that were
    analyzed the result is bit-identical to the fresh factorisation.

    The pivot sequence is fixed by the analysis, so each pivot is
    re-checked against the new values: {!Singular} if its column is
    numerically zero, {!Unstable} if the pivot magnitude falls below
    [stability_tol] (default [0.01], must be within [[0, 1]]) times the
    column maximum. Either way no factor with a poisoned pivot is ever
    returned. *)

val factor : ?ordering:ordering -> ?pivot_tol:float -> Csr.t -> t
(** [analyze] without keeping the symbolic part. *)

val factor_b : ?ordering:ordering -> ?pivot_tol:float -> Bcsr.t -> t
(** {!factor} reading Bigarray-backed storage: the numeric scatter pulls
    values straight from the [float64] Bigarray (no copy), so the
    factorisation agrees with [factor (Bcsr.to_csr b)] bit for bit. *)

val factor_hinted :
  ?ordering:ordering ->
  ?pivot_tol:float ->
  ?stability_tol:float ->
  hint:symbolic option ref ->
  Csr.t ->
  t
(** Factor-with-reuse: try {!refactor} against [!hint], and on [None],
    {!Pattern_mismatch}, {!Unstable} or {!Singular} fall back to a fresh
    {!analyze}, storing its symbolic object back into [hint]. The hint
    ref makes reuse *explicit* — callers that must stay bit-identical
    across runs (e.g. serial-vs-parallel sweeps) keep separate hints. *)

val symbolic_of : t -> symbolic
(** The symbolic object a factorisation was built from (or produced). *)

val solve : t -> Vec.t -> Vec.t
(** Solve [A x = b] reusing the factorisation. *)

val solve_many : ?pool:Opm_parallel.Pool.t -> t -> Vec.t array -> Vec.t array
(** Batched independent back-solves, domain-sharded on an
    {!Opm_parallel.Pool} (default the global pool). The factors are
    immutable and every solve owns its scratch, so the result is
    bit-identical to [Array.map (solve f)] in any pool size. *)

val solve_transpose : t -> Vec.t -> Vec.t
(** Solve [Aᵀ x = b] from the same factors (needed by {!cond_est}).
    Each [L] column is summed in its storage order, which is not part
    of the bit contract (see above): its last bits may move when the
    analysis's DFS changes, where [solve]'s do not. *)

val cond_est : t -> float
(** Hager/Higham 1-norm condition estimate [‖A‖₁ · est(‖A⁻¹‖₁)] — a
    handful of triangular solves on the existing factors. Computed on
    first call, then cached on the factor, so cached factorisations
    carry their estimate for free. Its last bits follow
    {!solve_transpose}'s. *)

val solve_dense : Csr.t -> Vec.t -> Vec.t
(** One-shot convenience. *)

val nnz_factors : t -> int
(** Fill-in diagnostic: nonzeros of [L] + [U]. *)
