open Opm_numkit
open Opm_sparse
open Opm_robust

(** The OPM column engine.

    Every OPM form is one upper-triangular column recurrence (paper
    §III-A): column [i] of the coefficient matrix [X] solves

    [(Σ_j c_j(i)·M_j) x_i = bu_i − history_i]

    where the {e pencil} [M = [M_1 … M_J]] is a fixed operator set and
    the {e history} strategy supplies both the per-column coefficients
    [c(i)] and the history term:

    - differential form [Σ_k E_k·X·D_k = A·X + BU] (paper eq. (14)/(27),
      several terms): [M = [E_1 … E_K; A]], [c = [d^{(1)}_{ii} … d^{(K)}_{ii}; −1]],
      history [Σ_k E_k Σ_{j<i} d^{(k)}_{ji} x_j] on adaptive grids
      ({!triangular}); on uniform grids ({!toeplitz}) the same system
      recast as an N-lag banded recurrence plus one decaying kernel per
      fractional order (see {!toeplitz});
    - order-1 form ([D]'s special pattern — [2/h_i] on the diagonal,
      [4(−1)^{i−j}/h_i] above): [M = [E; A]], [c = [2/h_i; −1]], history
      [(4/h_i)·E·(−1)^i·Σ_{j<i} (−1)^j x_j], one running alternating sum
      ({!alternating}) — [O(n^β·#distinct steps + n·m)] instead of
      [O(n·m²)].

    The integral form [E·X = A·X·H + B·U·H + (E x₀)·1ᵀ] (the lineage of
    the paper's refs [2], [4]) needs no history of its own: [D = H⁻¹],
    so it is the same discrete system as the differential form.

    When the coefficients are constant across columns (uniform step)
    one factorisation serves every column — why Table II shows OPM's
    runtime on par with one-factorisation transient schemes.

    {2 Guardrails}

    Every column block is factored by the sparse LU of {!Slu}, and
    every column solve runs behind a fallback cascade. A non-finite
    column escalates: re-factor with strict partial pivoting
    ([pivot_tol = 1.0]), then fall back to a dense LU of the same block.
    A factor whose Hager 1-norm condition estimate exceeds
    {!Health.default_cond_limit} gets one step of iterative refinement,
    kept only when it strictly reduces the residual. On well-conditioned
    inputs every guard is a bit-identical no-op. When the cascade is
    exhausted the engine raises the structured {!Opm_error.Error}
    ([Singular_pencil] from the factorisations, [Non_finite] from the
    solves) instead of a bare LU exception. A [health] collector
    additionally receives per-column NaN/Inf counts, the maximum
    residual [‖(Σ_j c_j(i) M_j) x_i − rhs_i‖∞], the worst condition
    estimate, and the fallback events taken — collection never changes
    the result.

    A [budget] arms cooperative resource enforcement: the wall-clock
    deadline is checked before every column, and each factorisation is
    charged (with an estimated footprint of [nnz·16] bytes) before it
    runs; on breach a structured [Opm_error.Deadline_exceeded] /
    [Budget_exhausted] is raised. The engine also carries four
    fault-injection sites ([factor], [column-solve], [fft-block], and
    [window-handoff] at window boundaries, see {i Opm_robust.Fault});
    when no plan is armed each site is a single atomic load.

    {2 Fast history convolution}

    On uniform grids the fractional kernels of {!toeplitz} are causal
    convolutions with the solved-column sequence, always routed through
    {!Opm_numkit.Fft.Blocked_conv} — [O(|S|·m·log² m)] instead of the
    [O(n·m²)] column scan. Below the convolver's 32-column base it sums
    the lags directly, so short horizons need no FFT level. Every
    kernel decays, so the FFT serves every order. It reassociates the
    summation: results agree with a direct scan of the same recast
    system to ≤ 1e-10 relative, not bit-identically.

    The convolver keeps only the support S of the fractional terms: the
    state columns where some fractional [E_k] has a nonzero, computed
    once per pencil. Each solved column is pushed restricted to S, and
    each history vector is scattered back into the full state before
    [E_k] multiplies it; a state outside S only ever meets zeros of
    [E_k]. When S is empty (every fractional [E_k] is zero) no
    convolver is built and no fractional history is summed. *)

(** {1 Pencil} *)

type pencil
(** A sparse operator set [M_1 … M_J] whose last operator is [A]. The
    pencil owns the symbolic analysis of its first factorisation: every
    block it factors shares one sparsity pattern, so the rest replay
    the recorded elimination numerically ({!Slu.factor_hinted}).

    {b Factor cache.} A pencil also owns the column blocks it has
    factorised, so a pencil prepared and run many times (a compiled
    model's queries, its windows) factors each block once. Blocks are
    keyed on the full [(α₁…α_K, h)] identity of the history plus the
    column coefficients, never on the coefficients alone: [(2/h)^α]
    coincides for different [(α, h)] pairs (at [h = 2] it is [1.0] for
    {e every} α), and one pencil may be prepared against histories of
    different orders. At most 64 blocks are kept; on overflow the
    cache resets, so a fully-adaptive grid holds bounded memory while
    uniform and few-distinct-step grids stay fully cached. The cache is
    safe to share between domains: one mutex guards it and its
    counters, and a miss factors under it, so two domains missing one
    key factor it once and the counts stay exact. *)

val pencil : Csr.t list -> pencil
(** [pencil [M_1; …; A]]. Raises [Invalid_argument] on fewer than two
    operators or mismatched [n×n] dimensions. *)

val size : pencil -> int
(** The state count [n]. *)

val pencil_lookups : pencil -> int * int
(** [(hits, misses)] of every factor-cache lookup made on this pencil;
    [misses] is the number of blocks it has factorised. A {!prepare}
    and its {!run} consult the cache once on a uniform grid (the run
    serves consecutive columns from a memo), so on a uniform grid the
    counts count runs, not columns. *)

(** {1 History} *)

type history

val toeplitz : orders:float list -> step:float -> int -> history
(** [toeplitz ~orders ~step m]: the differential form on a
    uniform grid of [m] columns of step [h = step], one differentiation
    order per [E_k]. Every [D_k = s_k·ρ_{α_k}(Q)] ([s_k = (2/h)^{α_k}],
    [ρ_α = ((1−q)/(1+q))^α], paper eq. (21)–(24)) is upper-triangular
    Toeplitz, and nothing [m×m] is ever formed.

    The history is the column equation right-multiplied by the unit
    upper triangle [(I+Q)^N], with [α_k = n_k + β_k], [β_k ∈ [0, 1)],
    [N = max n_k] and [p_k = (1−q)^{n_k}(1+q)^{N−n_k}]:

    [M_0 x_i = Σ_{l≤N} C(N,l)·bu_{i−l} − Σ_{1≤l≤N} M_l x_{i−l}
              − Σ_{k: β_k>0} E_k Σ_{l≥1} κ_k[l]·x_{i−l}]

    - [M_0 = Σ_k s_k E_k − A]: the column block and its cache key are
      those of the plain scan;
    - [M_l = Σ_{k: β_k=0} s_k·p_k[l]·E_k − C(N,l)·A], built once per
      pencil and kept by the history: integer orders, [A] and [B·U]
      cost [O(n·N)] per column;
    - [κ_k = s_k·(1−q)^{α_k}(1+q)^{N−α_k}], one decaying kernel per
      fractional order, from an [O(m)] series recurrence.

    The discrete solution is the paper's; only the rounding differs
    from a plain scan of [D_k], and it is much smaller for orders above
    one. The fractional kernels are summed by the blocked FFT convolver
    at every horizon (see {b Fast history convolution}). The history
    keeps [M_l] and the kernels' FFT spectra across runs: the first {!prepare} builds them (a compiled
    model's compile), later runs only read them, and each run convolves
    into a convolver of its own. Raises [Invalid_argument] on a negative
    order or column count. *)

val triangular : orders:float list -> Mat.t list -> history
(** Differential form on an adaptive grid: [D_1 … D_K] ([m×m] upper
    triangular, one per [E_k]) with their differentiation [orders]. The
    history is the plain scan [Σ_k E_k Σ_{j<i} d^{(k)}_{ji} x_j]. It
    walks the rows in blocks, so the solved columns stream from memory
    once per query, not once per term; each term still sums its lags in
    ascending [j], bit for bit as a per-term scan would. The history
    never takes the FFT path. Raises
    [Invalid_argument] on an order/matrix count mismatch or non-square
    or unequal [D_k]. *)

val alternating : float array -> history
(** Order-1 form over the given steps [h_i]; never materialises [D]. *)

(** {1 Prepare / run} *)

type ctx = { health : Health.t option; budget : Budget.t option }

val default : ctx
(** No health collection, no budget. *)

type plan

val prepare : ctx -> pencil -> history -> plan
(** Validate the shapes, look up (or factor) the column-0 block in the
    pencil's cache, and return the plan. Raises
    [Invalid_argument] when the history does not fit the pencil (one
    [D_k] per [E_k]; [[E; A]] for the order-1 form) or
    the horizon is empty, {!Opm_error.Error} when the block is
    singular. *)

(** A window boundary every [width] columns (see {!run}). *)
type boundary = {
  width : int;
  memory : int option;
      (** [Some k]: at each window start [s], the fractional history
          keeps columns [max 0 (s − k) … s − 1] only; the integer band
          stays exact. [k ≥ 0]. *)
  at : int -> unit;
      (** called with the solved column count [c] at each boundary *)
}

val run :
  ?boundary:boundary ->
  ?replay:int * (int -> Vec.t) ->
  plan ->
  bu:(int -> Vec.t) ->
  emit:(int -> Vec.t -> unit) ->
  unit
(** [run plan ~bu ~emit] performs the column loop, the one loop every
    OPM route solves with. Column [i] of the forcing is [bu i], asked
    for at most once, in order: a fresh length-[n] vector the engine
    keeps and overwrites. Each solved column goes to [emit i x_i], in
    order; the history may keep [x_i], so [emit] must not mutate it.
    The run keeps only the history state it reads back (see {b Column
    state}), so a sink that reduces each column never holds an [n×m]
    matrix.

    {b Column state.} The order-1 form keeps one running sum; a banded
    history its last [N] columns and forcings (its FFT convolver keeps
    its own copy of the support rows); {!triangular} keeps every
    column.

    {b Windows.} [?boundary] fires after column [i] whenever
    [(i+1) mod width = 0] or [i = m − 1]: first [at (i+1)], then, unless
    the run is done, the [memory] cutoff, the [window-handoff] fault
    site (a [Nan_poison] corrupts the carried column state, never an
    emitted column, so the NaN surfaces as a structured error in a
    later column) and the ["window.boundary"] deadline check. A window
    is a slice of the one column loop, not a second operator: without
    [memory] the columns are those of the run without [?boundary], bit
    for bit. Without [?boundary] the loop is unchanged.

    {b Replay.} [?replay:(k, col)] seeds the column state from columns
    [0 … k−1] solved earlier ([col j] is column [j]) by pushing them
    through the history, asking [bu j] again where the history keeps
    forcings, and starts the loop at column [k]; the [memory] cutoff
    applies at [k]. Every push is deterministic, so a run resumed from
    its own prefix is bit-identical to the uninterrupted one. Replayed
    columns are not emitted.

    A plan may be run repeatedly, but by one domain at a time (it
    counts its cache lookups); plans prepared from one pencil and
    history may run on several domains at once. Raises
    {!Opm_error.Error} when a block is singular or a column stays
    non-finite, and [Invalid_argument] on [width < 1] or [k] outside
    [0 … m]. *)

val solve : plan -> Mat.t -> Mat.t
(** [solve plan bu] is {!run} against the [n×m] forcing [bu],
    collecting the columns into [X]. Raises [Invalid_argument] on a
    [bu] shape mismatch. *)

val lookups : plan -> int * int
(** [(hits, misses)] of the factor-cache lookups this plan's {!prepare}
    and runs made — a per-query view that stays exact while other
    queries share the pencil. *)

val identity : plan -> int * float list
(** [(m, key)]: the column count and the cache key of the column-0
    block (the history's orders and step). *)

val solve_dense_kron : terms:(Mat.t * Mat.t) list -> a:Mat.t -> bu:Mat.t -> Mat.t
(** Reference implementation that forms the full
    [Σ_k (D_kᵀ ⊗ E_k) − I_m ⊗ A] Kronecker system (the paper's eq. (15))
    from [(E_k, D_k)] pairs and solves it densely — [O((nm)³)]; exists
    to validate the column engine and to ablate the complexity claim. *)
