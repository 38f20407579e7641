open Opm_numkit

(** Windowed streaming OPM driver.

    Splits a uniform horizon of [m] intervals into [⌈m/w⌉] windows of
    [w] columns (the last possibly shorter) and solves each window with
    the ordinary {!Engine} column machinery. On a uniform grid every
    diagonal block of the pencil is the same matrix, so one
    {!Engine.Factor_cache} shared across all windows factorises it
    exactly once for the whole horizon — the per-window solves are pure
    triangular substitutions, and the working set of a window is
    O(n·(w + K)) instead of the global solve's O(n·m).

    {2 State handoff}

    Because [D^α] is upper-triangular Toeplitz on a uniform grid
    ([d_{ji} = (2/h)^α · ρ_{i−j}]), the coupling of window columns to
    columns before the window is a pure RHS term: for global column
    [i = s + l] of a window starting at [s],

    [bu'_l = bu_i − Σ_k E_k Σ_{j=max(0, s−K)}^{s−1} (2/h)^{α_k} ρ^{(k)}_{i−j} x_j]

    With the full tail ([K = m], the default) this is algebraically the
    global column recurrence re-bracketed, so the windowed solve equals
    the global one for {e every} order, integer or fractional, up to
    the rounding introduced by regrouping the sum (≈1e-15 rel per
    handoff).

    [~memory_len] truncates the tail to the last [K] columns — the
    short-memory principle — but naive truncation of [ρ_α] is only
    sound for [0 < α < 1]: the [ρ] weights of [α ≥ 1] alternate without
    decay ([α = 1] is exactly [1, −2, 2, −2, …]), so the driver factors
    each order as [α = n + β] with [n = ⌊α⌋] and splits
    [ρ_α = ρ_n ⊛ ρ_β]. The integer factor is the order-[n] linear
    recurrence [Σ_p C(n,p) y_{t−p} = Σ_p (−1)^p C(n,p) x_{t−p}]
    (because [((1−q)/(1+q))^n] satisfies [(1+q)^n y = (1−q)^n x]) whose
    [O(n·n_states)] boundary state is carried across windows {e
    exactly}; only the fractional factor [ρ_β], whose weights decay
    like [lag^{−(1+β)}], is truncated to the last [K] transformed
    columns. Consequences: integer orders are exact for {e any}
    [memory_len] (including 0), singular [E] (MNA/DAE systems)
    included, and a truncated fractional solve commits a relative error
    empirically below {!truncation_mass} of the [β] series. Order-1
    systems take this path too: their state is the last column and the
    last transformed column, [O(n)].

    Observability: each window runs in a ["window"] trace span;
    [window.count] counts windows, [window.factor_reuse] counts
    factorisations served from the shared cache, and
    [window.handoff_seconds] observes per-window handoff time. *)

type stats = {
  windows : int;  (** number of windows solved, [⌈m/w⌉] *)
  width : int;  (** requested window width [w] *)
  memory_len : int;  (** effective history length [K] *)
  factor_hits : int;
      (** pencil-factor lookups served from the shared cache {e during
          this call} — one per window after the first on a uniform
          grid, i.e. [⌈m/w⌉ − 1] (each engine call consults the shared
          cache once; its columns are served by a per-call memo). A
          caller-supplied prefactored cache makes every window a hit. *)
  factor_misses : int;  (** factorisations actually computed this call *)
  handoff_seconds : float;
      (** total wall time spent on cross-window state handoff (history
          tail RHS corrections and ring updates) *)
}

val truncation_mass :
  alpha:float -> lags:int -> memory_len:int -> float
(** [truncation_mass ~alpha ~lags ~memory_len] =
    [Σ_{K < j ≤ lags} |ρ_j| / Σ_{1 ≤ j ≤ lags} |ρ_j|] for the ρ-series
    of the {e fractional factor} [β = α − ⌊α⌋] (the only part the
    driver truncates; see the handoff notes above) — the fraction of
    total history weight a [memory_len = K] truncation discards over a
    horizon with [lags] ([= m − 1]) reachable lags. [0.] for integer
    [α] (carried exactly) and whenever nothing is truncated; the
    windowed-vs-global relative error of a truncated solve is
    empirically below this mass (see [test/test_window.ml]). *)

exception
  Interrupted of {
    error : Opm_robust.Opm_error.t;
        (** the breach: [Deadline_exceeded], [Budget_exhausted], or an
            [Io_error] from a checkpoint write *)
    partial : Mat.t;
        (** every completed window's columns, [n × (completed·w)] — a
            usable prefix of the horizon, never a partially solved
            window *)
    completed_windows : int;
    checkpoint : string option;
        (** path of the last checkpoint successfully written this run
            (or restored from), if any — pass it back as [~resume_from]
            to continue *)
  }
(** Raised by {!solve} when a {!Opm_robust.Budget} breach or a
    checkpoint-write failure interrupts a run at a window or column
    boundary. The in-flight window is discarded; everything before it is
    in [partial]. *)

val solve :
  ?backend:[ `Auto | `Dense | `Sparse ] ->
  ?health:Opm_robust.Health.t ->
  ?memory_len:int ->
  ?on_window:(index:int -> start:int -> Mat.t -> unit) ->
  ?fcache:Engine.cache ->
  ?budget:Opm_robust.Budget.t ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume_from:string ->
  window:int ->
  grid:Opm_basis.Grid.t ->
  Multi_term.t ->
  bu:Mat.t ->
  Mat.t * stats
(** [solve ~window:w ~grid sys ~bu] solves the coefficient equation for
    [sys] against the precomputed [n×m] forcing matrix [bu] (see
    {!Opm.simulate_multi_term}, which builds [bu] — including the
    [x₀] substitution — and delegates here when [?window] is given),
    streaming window by window. Returns the full coefficient matrix
    plus the streaming {!stats}.

    [?memory_len] bounds the fractional history tail (default: full
    horizon = exact); integer orders are carried exactly whatever its
    value.
    [?on_window] is called after each window with its index, starting
    column, and the [n×wlen] solved block — the streaming hook for
    consumers that do not want the assembled horizon.

    Every window is one {!Engine.prepare}/{!Engine.run} pair against
    one pencil. [?fcache] substitutes a caller-owned factor cache for
    the per-call private one: a compiled model ({!Compiled_model})
    passes a cache {!prefactor} has filled, so no query factorises
    anything; the engine pins the uniform-grid block it inserts (the
    bounded cache can never evict the hot pencil mid-run, whatever else
    shares the cache). Each window's history sums its fractional
    kernels through the FFT convolver, however short [w] is.

    The [stats] hits/misses are deltas over this call when the cache is
    shared.

    {2 Crash safety}

    [?budget] threads a {!Opm_robust.Budget} through the run: the
    wall-clock deadline is checked at every window boundary (site
    ["window.boundary"]) and, via the engine, at every column (site
    ["engine.column"]); factorisation count and heap-byte caps are
    charged where pencils are built. A breach raises {!Interrupted}
    carrying the completed-window prefix.

    [?checkpoint] writes a resumable snapshot (schema
    ["opm-checkpoint-v1"], see {!Opm_robust.Checkpoint}) after every
    [?checkpoint_every]-th window (default 1) and after the final one.
    The payload holds the cross-window handoff state — the
    integer-recurrence rings and the fractional tails — plus the solved
    column prefix and a fingerprint of ([n], [m], [w], effective memory
    length, [h], the [α] list, input order, backend, and a digest of
    [bu]). The fingerprint's [kind] is always ["general"]: a checkpoint
    of the retired order-1 endpoint path (kind ["linear"]) is refused
    with [Checkpoint_error]. Writes are atomic (tmp + rename), so the file
    on disk is always a complete, checksummed envelope.

    [?resume_from] loads such a snapshot and continues from its
    [next_window]; the fingerprint must match the current call exactly
    (structural equality) or [Checkpoint_error] is raised. A resumed run
    is bit-identical to the uninterrupted one — the restored state is
    hex-encoded IEEE-754 bits, not decimal round-trips. [?on_window] is
    {e not} re-fired for windows restored from the snapshot.

    Raises [Invalid_argument] when [window < 1], [memory_len < 0],
    [checkpoint_every < 1], the grid is not uniform, or [bu] disagrees
    with the system order and grid size. [window ≥ m] degenerates to a
    single window covering the horizon. *)

val prefactor :
  Engine.ctx ->
  Engine.pencil ->
  window:int ->
  grid:Opm_basis.Grid.t ->
  Multi_term.t ->
  unit
(** Compile-ahead: prepare the first window of [solve ~window ~grid sys]
    against the same keys, so the block every window looks up is already
    in the context's cache (pinned). [pencil] must hold the system's
    operators on the backend [solve] will use. *)
