open Opm_numkit
open Opm_basis
open Opm_signal

(** Factor-once / query-many compiled models.

    [Opm.simulate_*] re-expands the basis, rebuilds [D^α], re-plans the
    FFT convolver and re-factors the pencil on every call — yet none of
    those depend on the sources. The MPC/sweep workload class (OPOM-style
    step-response models, batched serving) solves the {e same} plant
    thousands of times with different inputs, so this module splits the
    work at exactly that line:

    - {b plant-dependent}, done once in {!compile}: BPF expansion
      scaffolding, the {!Engine.pencil}, the operational matrices
      [D^{α_k}] (O(m²) each) and the ρ series held by the column
      history, and the factored column-0 block — {!Engine.prepare}
      inserts it {e pinned} into the model's {!Engine.Factor_cache} so
      the bounded cache can never evict it mid-sweep;
    - {b input-dependent}, per {!solve} query: project the sources,
      form [B·U·D^r], and {!Engine.prepare}/{!Engine.run} the column
      recurrence against the cached factor — zero factorisations,
      O(n·m·log m) per query; the history keeps its
      {!Opm_numkit.Fft.Blocked_conv} (kernel spectra) across queries.

    A query is bit-identical to the corresponding one-shot
    [Opm.simulate_*] call (which is itself implemented as
    compile-then-solve), because compile and query prepare the same
    pencil and history under the same keys.

    Windowed models delegate queries to {!Window.solve}, sharing the
    factor cache and the ρ-series cache across windows {e and}
    queries.

    Queries are sequential: a compiled model carries mutable per-query
    scratch (the FFT convolver), so one [t] must not be queried from
    two domains concurrently.

    Observability: [compiled.queries] counts queries,
    [compiled.factor_reuse] counts pencil lookups served from the
    model's cache, and each query runs in a ["compiled_solve"] trace
    span ([compile] in a ["compiled.compile"] span). *)

type backend = [ `Auto | `Dense | `Sparse ]

type basis = [ `Bpf | `Spectral ]
(** The discretisation basis: [`Bpf] (default) is the paper's
    block-pulse expansion with its triangular column recurrence;
    [`Spectral] is the Jacobi-Gauss collocation backend of
    {!Spectral_solver} — exponentially convergent on smooth sources, so
    [m ≈ 32] collocation nodes replace thousands of block pulses (see
    DESIGN.md §18 for the when-to-use table and the Gibbs caveat on
    discontinuous sources). *)

type t

val compile :
  ?backend:backend ->
  ?basis:basis ->
  ?health:Opm_robust.Health.t ->
  ?window:int ->
  ?memory_len:int ->
  grid:Grid.t ->
  Multi_term.t ->
  t
(** Precompute everything plant-dependent. [?window] selects the
    windowed streaming driver for queries (same semantics as
    {!Opm.simulate_multi_term}; [window ≥ m] degenerates to the global
    path). [?memory_len] truncates that driver's fractional history
    tail, so it has no effect without a [window < m]: the global path
    always carries the full history. [?health] collects fallback
    events of the compile-time factorisation itself; per-query
    collection is a {!solve} argument.
    Raises [Invalid_argument] for [window < 1].

    Adaptive grids compile too — the operational matrices are still
    amortised — but skip prefactoring and pinning (one pinned entry per
    distinct step would be unbounded); the first query factors and the
    bounded cache carries the factors to later queries.

    [?basis:`Spectral] compiles the Jacobi-Gauss collocation operator
    instead ([Grid.size grid] becomes the collocation-node count; the
    waveform views stay on the same grid's midpoints). The collocation
    operator is input-independent, so the factor-once/query-many
    contract carries over: exactly one factorisation at compile, every
    query a back-solve. Spectral models are global by construction —
    [?window]/[?memory_len] raise [Invalid_argument], and so do
    adaptive grids. *)

val compile_linear :
  ?backend:backend ->
  ?basis:basis ->
  ?health:Opm_robust.Health.t ->
  ?window:int ->
  ?memory_len:int ->
  grid:Grid.t ->
  Descriptor.t ->
  t
(** [compile] of {!Multi_term.of_linear}. *)

val compile_fractional :
  ?backend:backend ->
  ?basis:basis ->
  ?health:Opm_robust.Health.t ->
  ?window:int ->
  ?memory_len:int ->
  grid:Grid.t ->
  alpha:float ->
  Descriptor.t ->
  t
(** [compile] of {!Multi_term.of_fractional}. *)

val solve :
  ?health:Opm_robust.Health.t ->
  ?budget:Opm_robust.Budget.t ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume_from:string ->
  ?x0:Vec.t ->
  t ->
  Source.t array ->
  Sim_result.t
(** One query: project [sources], apply the [x₀] substitution, and run
    the column recurrence against the compiled state. Bit-identical to
    the matching one-shot [Opm.simulate_*] call.

    [?budget] enforces the deadline/factor/heap caps cooperatively on
    every plan; [?checkpoint]/[?checkpoint_every]/[?resume_from] are
    forwarded to {!Window.solve} and require a windowed model
    ([Invalid_argument] otherwise — the global paths have no
    window-boundary state to snapshot). A budget breach or
    checkpoint-write failure on a windowed model raises
    {!Window.Interrupted}. *)

val solve_coeffs :
  ?health:Opm_robust.Health.t -> ?budget:Opm_robust.Budget.t -> t -> Mat.t -> Mat.t
(** Raw query: [u] is the [p×m] input-coefficient matrix (already in
    BPF coordinates — see {!input_coefficients}); applies the input
    derivative [U·D^r] when the system has one and returns the raw
    [n×m] state-coefficient matrix (zero initial state, no output
    projection). The step/impulse-response exporters are one-liners on
    top of this. Raises [Invalid_argument] on spectral-basis models:
    their queries sample sources at collocation nodes, there is no BPF
    coefficient layer to inject into. *)

val queries : t -> int
(** Queries answered so far. *)

val factor_reuse : t -> int
(** Pencil lookups served from {e this model's} factor cache — the
    per-plant counterpart of the process-global [compiled.factor_reuse]
    metrics counter (which sums every model in the process and
    therefore cannot attribute reuse to a plant). On a uniform-grid
    model this increments once per query. *)

val factorisations : t -> int
(** Pencil factorisations {e this model} has performed (cache misses of
    its own cache, the compile-time prefactorisation included). A
    healthy uniform-grid model reports [1] for its whole lifetime —
    the factor-once contract a serving layer asserts per plant. *)

val grid : t -> Grid.t

val system : t -> Multi_term.t

val backend : t -> [ `Dense | `Sparse ]
(** The resolved backend ([`Auto] is resolved at compile time). *)

val basis : t -> basis
(** The basis this model was compiled in. *)

(** {2 Shared OPM helpers}

    Implementation home of helpers re-exported by {!Opm} (this module
    sits below it in the dependency order). *)

val input_coefficients : grid:Grid.t -> Source.t array -> Mat.t

val bu_matrix :
  ?deriv:(unit -> Mat.t) -> grid:Grid.t -> Multi_term.t -> Source.t array -> Mat.t
