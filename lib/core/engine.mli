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
      history [Σ_k E_k Σ_{j<i} d^{(k)}_{ji} x_j] ({!toeplitz} on uniform
      grids, {!triangular} on adaptive ones);
    - order-1 form ([D]'s special pattern — [2/h_i] on the diagonal,
      [4(−1)^{i−j}/h_i] above): [M = [E; A]], [c = [2/h_i; −1]], history
      [(4/h_i)·E·(−1)^i·Σ_{j<i} (−1)^j x_j], one running alternating sum
      ({!alternating}) — [O(n^β·#distinct steps + n·m)] instead of
      [O(n·m²)];
    - integral form [E·X = A·X·H + B·U·H + (E x₀)·1ᵀ] (the lineage of
      the paper's refs [2], [4]; initial conditions enter for free):
      [M = [E; A]], [c = [1; −H_{ii}]], history [A·Σ_{j<i} h_j x_j], one
      running sum ({!running_sum}).

    When the coefficients are constant across columns (uniform step)
    one factorisation serves every column — why Table II shows OPM's
    runtime on par with one-factorisation transient schemes.

    {2 Guardrails}

    Every column solve runs behind a fallback cascade. A non-finite
    column escalates — for the sparse backend: re-factor with strict
    partial pivoting ([pivot_tol = 1.0]), then fall back to a dense LU
    of the same block — and a factor whose Hager 1-norm condition
    estimate exceeds {!Health.default_cond_limit} gets one step of
    iterative refinement, kept only when it strictly reduces the
    residual. On well-conditioned inputs every guard is a bit-identical
    no-op. When the cascade is exhausted the engine raises the
    structured {!Opm_error.Error} ([Singular_pencil] from the
    factorisations, [Non_finite] from the solves) instead of a bare
    backend exception. A [health] collector additionally receives
    per-column NaN/Inf counts, the maximum residual
    [‖(Σ_j c_j(i) M_j) x_i − rhs_i‖∞], the worst condition estimate, and
    the fallback events taken — collection never changes the result.

    A [budget] arms cooperative resource enforcement: the wall-clock
    deadline is checked before every column, and each factorisation is
    charged (with an estimated footprint — [n²·8] bytes dense, [nnz·16]
    sparse) before it runs; on breach a structured
    [Opm_error.Deadline_exceeded] / [Budget_exhausted] is raised. The
    engine also carries three fault-injection sites ([factor],
    [column-solve], [fft-block], see {i Opm_robust.Fault}); when no plan
    is armed each site is a single atomic load.

    {2 Fast history convolution}

    On uniform grids every [D_k] is upper-triangular {e Toeplitz} and
    the history carries only its first row ({!toeplitz}), so the
    differential history is a causal convolution of the first-row
    coefficients with the solved-column sequence, routed through
    {!Opm_numkit.Fft.Blocked_conv} — [O(n·m·log² m)] instead of the
    naive [O(n·m²)] scan. The FFT reassociates the summation: results
    agree with the naive path to ≤ 1e-10 relative, not bit-identically.
    {!fft_rhs_enabled} gates the fast path globally ([OPM_NO_FFT_RHS],
    the CLI's [--no-fft-rhs]). *)

val fft_rhs_enabled : unit -> bool
(** Whether the FFT Toeplitz history path may be used. Defaults to
    [true] unless the environment variable [OPM_NO_FFT_RHS] is set to a
    non-empty value other than ["0"]. *)

val set_fft_rhs_enabled : bool -> unit
(** Override the switch for the rest of the process (takes precedence
    over the environment). *)

(** Bounded factorisation cache keyed by an arbitrary hashable key. A
    hashtable keyed on the exact key gives O(1) lookups (the former
    assoc list scanned linearly — O(m²) over a fully-adaptive grid —
    and grew without bound); when [capacity] distinct keys are exceeded
    the cache resets, bounding memory while keeping uniform and
    few-distinct-step grids fully cached.

    {b Key discipline.} The engine keys its blocks on the full
    [(α₁…α_K, h)] identity of the pencil plus the column coefficients,
    never on the diagonal coefficients alone: [(2/h)^α] coincides for
    different [(α, h)] pairs (at [h = 2] it is [1.0] for {e every} α),
    so a diagonal-only key would silently reuse the wrong factorisation
    when a process mixes differentiation orders on one grid. One cache
    serves one operator set: share a cache only between runs of the
    same [E_k], [A]. *)
module Factor_cache : sig
  type ('k, 'f) t

  val default_capacity : int
  (** 64. *)

  val create : ?capacity:int -> unit -> ('k, 'f) t
  (** Raises [Invalid_argument] if [capacity < 1]. *)

  val find_or_add : ?pin:bool -> ('k, 'f) t -> 'k -> ('k -> 'f) -> 'f
  (** [find_or_add c k factor] returns the cached factorisation for key
      [k], calling [factor k] (and evicting on overflow) on a miss.

      [~pin:true] marks the entry {e pinned}: pinned entries live
      outside the capacity bound and survive the overflow reset, so a
      sweep interleaving more than [capacity] other [(α, h)] keys can
      never evict the hot pencil factor mid-run. Pinning is an upgrade
      — a key already cached unpinned is migrated. Pinned entries are
      expected to be few (the hot pencils of live windows / compiled
      models); they are released only with the cache itself. *)

  val length : ('k, 'f) t -> int
  (** Currently cached entries, pinned included; the unpinned portion
      is always [<= capacity]. *)

  val pinned_count : ('k, 'f) t -> int

  val hits : ('k, 'f) t -> int
  (** Cache accesses served from the table (pinned or not). A
      {!prepare}/{!run} pair consults the cache once on a uniform grid —
      consecutive columns are served by a per-run memo — so [hits] and
      [misses] count engine runs, not columns. *)

  val misses : ('k, 'f) t -> int
end

type block
(** A factorised column block, either backend; the sparse one is
    upgraded in place by the fallback cascade. *)

type cache = (float list, block) Factor_cache.t

(** {1 Pencil} *)

type pencil
(** A backend-tagged operator set [M_1 … M_J] whose last operator is
    [A]. The sparse pencil owns the symbolic analysis of its first
    factorisation: every block it factors shares one sparsity pattern,
    so the rest replay the recorded elimination numerically
    ({!Slu.factor_hinted}). *)

val pencil : [ `Auto | `Dense | `Sparse ] -> Csr.t list -> pencil
(** [pencil backend [M_1; …; A]]. [`Auto] picks the sparse LU for
    systems larger than 64 states and the dense LU otherwise; [`Dense]
    converts the operators once. Raises [Invalid_argument] on fewer
    than two operators or mismatched [n×n] dimensions. *)

val backend : pencil -> [ `Dense | `Sparse ]

(** {1 History} *)

type history

val toeplitz :
  orders:float list -> step:float -> horizon:int -> Vec.t list -> history
(** Differential form on a uniform grid of step [h = step]: every [D_k]
    is upper-triangular Toeplitz, given by its first row alone
    ([D_k(j, i) = row_k.(i − j)], e.g.
    {!Opm_basis.Block_pulse.uniform_fractional_row}; the row length is
    the column count), one per [E_k], with their differentiation
    [orders]. No [m×m] matrix is ever formed: the diagonal, the cache
    key, the naive-scan lag weights and the FFT kernels are all read
    from the rows. The column block is pinned in the cache, and the
    history takes the FFT path when every order is ≤ 1,
    {!fft_rhs_enabled}, and [max m horizon ≥ 256] — [horizon] is the
    global history length, so a windowed caller solving a long horizon
    in short blocks still amortises the FFT. Below that crossover the
    lag weights are scanned naively. The history owns its convolver and
    reuses it across runs. Raises [Invalid_argument] on an order/row
    count mismatch or rows of unequal length. *)

val triangular : orders:float list -> Mat.t list -> history
(** Differential form on an adaptive grid: [D_1 … D_K] ([m×m] upper
    triangular, one per [E_k]) with their differentiation [orders]. The
    same column scan as {!toeplitz} reads the weights from the dense
    [D_k]; the blocks are never pinned and the history never takes the
    FFT path. Raises [Invalid_argument] on an order/matrix count
    mismatch or non-square or unequal [D_k]. *)

val alternating : float array -> history
(** Order-1 form over the given steps [h_i]; never materialises [D]. *)

val running_sum : x0:Vec.t -> float array -> history
(** Integral form over the given block-pulse steps [h_i], with initial
    state [x0]: the run's [bu] is [B·U·H]. Carries O(n) state, so any
    horizon costs [O(n^β·#distinct steps + n·m)]. *)

(** {1 Prepare / run} *)

type ctx = {
  health : Health.t option;
  budget : Budget.t option;
  fcache : cache option;
      (** a caller-owned cache shared across runs — windows, compiled
          queries — so a uniform-grid pencil is factorised once; by
          default every {!prepare} gets a private one *)
}

val default : ctx
(** No health collection, no budget, a private cache. *)

type plan

val prepare : ctx -> pencil -> history -> plan
(** Validate the shapes, look up (or factor) the column-0 block in the
    cache — pinned on uniform grids — and return the plan. Raises
    [Invalid_argument] when the history does not fit the pencil (one
    [D_k] per [E_k]; [[E; A]] for the order-1 and integral forms) or
    the horizon is empty, {!Opm_error.Error} when the block is
    singular. *)

val run : plan -> Mat.t -> Mat.t
(** [run plan bu] performs the column loop against the [n×m] forcing
    [bu] and returns [X]. A plan may be run repeatedly. Raises
    [Invalid_argument] on a [bu] shape mismatch, {!Opm_error.Error} when
    a block is singular or a column stays non-finite. *)

val solve_dense_kron : terms:(Mat.t * Mat.t) list -> a:Mat.t -> bu:Mat.t -> Mat.t
(** Reference implementation that forms the full
    [Σ_k (D_kᵀ ⊗ E_k) − I_m ⊗ A] Kronecker system (the paper's eq. (15))
    from [(E_k, D_k)] pairs and solves it densely — [O((nm)³)]; exists
    to validate the column engine and to ablate the complexity claim. *)
