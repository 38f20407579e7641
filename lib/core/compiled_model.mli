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
      scaffolding, the sparse {!Engine.pencil}, the column history (on a
      uniform grid the banded lag operators and fractional kernels of
      {!Engine.toeplitz}, O(m) each; on an adaptive grid the dense
      operational matrices [D^{α_k}]), and the factored column-0 block
      — {!Engine.prepare} caches it on the model's pencil, which serves
      it to every later query;
    - {b input-dependent}, per {!solve} query: project the sources to
      [U·D^r] (p×m), and {!Engine.prepare}/{!Engine.run} the column
      recurrence against the cached factor, fed [B·u_i] one column at a
      time — zero factorisations, O(n·m·log m) per query; the history
      keeps its lag operators and kernel spectra across queries.

    A query is bit-identical to the corresponding one-shot
    [Opm.simulate_*] call (which is itself implemented as
    compile-then-solve), because compile and query prepare the same
    pencil and history under the same keys.

    A windowed model is the same column model with a window width: its
    queries run the one column loop through {!Window.run}, sharing the
    pencil's factor cache across windows {e and} queries.

    {b Re-entrant queries.} One [t] may be queried from several domains
    at once. A query writes no model-level state except under a lock
    (factor-cache lookups and counters, the fallback escalation of a
    shared sparse block) or through an [Atomic] ({!queries}, the
    spectral reuse count); each run keeps its own history state and
    convolver. Every per-query statistic comes from the query's own
    cache lookups, so {!queries}, {!factor_reuse} and {!factorisations}
    are exact under concurrency, and every answer is bit-identical to
    the sequential one.

    Observability: [compiled.queries] counts queries,
    [compiled.factor_reuse] counts pencil lookups served from the
    model's cache, and each query runs in a ["compiled_solve"] trace
    span ([compile] in a ["compiled.compile"] span). *)

type basis = [ `Bpf | `Spectral ]
(** The discretisation basis: [`Bpf] (default) is the paper's
    block-pulse expansion with its triangular column recurrence;
    [`Spectral] is the Jacobi-Gauss collocation operator of
    {!Spectral_solver} — exponentially convergent on smooth sources, so
    [m ≈ 32] collocation nodes replace thousands of block pulses (see
    DESIGN.md §18 for the when-to-use table and the Gibbs caveat on
    discontinuous sources). *)

type t

val compile :
  ?basis:basis ->
  ?health:Opm_robust.Health.t ->
  ?window:int ->
  ?memory_len:int ->
  grid:Grid.t ->
  Multi_term.t ->
  t
(** Precompute everything plant-dependent. [?window] puts a boundary
    every [window] columns of each query's column loop (same semantics
    as {!Opm.simulate_multi_term}; [window ≥ m] degenerates to the
    global path); the model takes the global model's history, so its
    answers are the global ones, bit for bit. [?memory_len] cuts the
    fractional history at each window start, so it has no effect
    without a [window < m]: the global path always carries the full
    history. [?health] collects fallback events of the compile-time
    factorisation itself; per-query collection is a {!solve} argument.
    Raises [Invalid_argument] for [window < 1], and for a [window < m]
    on an adaptive grid.

    Adaptive grids compile too — the operational matrices are still
    amortised — but skip prefactoring (one block per distinct step);
    the first query factors and the pencil's bounded cache carries the
    factors to later queries.

    [?basis:`Spectral] compiles the Jacobi-Gauss collocation operator
    instead ([Grid.size grid] becomes the collocation-node count; the
    waveform views stay on the same grid's midpoints). The collocation
    operator is input-independent, so the factor-once/query-many
    contract carries over: exactly one factorisation at compile, every
    query a back-solve. Spectral models are global by construction —
    [?window]/[?memory_len] raise [Invalid_argument], and so do
    adaptive grids. *)

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
    forwarded to {!Window.run} and require a windowed model
    ([Invalid_argument] otherwise — the global paths have no
    window-boundary state to snapshot). A budget breach or
    checkpoint-write failure on a windowed model raises
    {!Window.Interrupted}. *)

val solve_outputs :
  ?budget:Opm_robust.Budget.t ->
  ?x0:Vec.t ->
  t ->
  Source.t array ->
  Waveform.t
(** The outputs of one query, [(solve ?budget ?x0 t sources).outputs],
    without the states. On a global block-pulse model it streams: each
    solved column goes straight into [y_i = C·x_i] and no [n×m] matrix
    is built: a query holds its [q×m] outputs and the column state its
    history reads back (see {!Engine.run}); a windowed model streams
    too, plus its in-flight window, and keeps the solved prefix only
    under a [?budget] (for {!Window.Interrupted}). Spectral models
    answer through {!solve}.

    {b Bit contract.} [B·u_i] and [C·x_i] are summed as {!Mat.mul}
    sums: ascending [k], zero coefficients skipped, starting from
    [+0.0]; [x₀] is added per column in {!solve}'s order. So
    [solve_outputs t s] equals [(solve t s).outputs] bit for bit on
    every plan kind, with and without [x0]. *)

val solve_coeffs : t -> Mat.t -> Mat.t
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
(** Pencil lookups served from the factor cache of {e this model's}
    pencil — the per-plant counterpart of the process-global
    [compiled.factor_reuse] metrics counter (which sums every model in
    the process and therefore cannot attribute reuse to a plant). On a
    uniform-grid model this increments once per query. A spectral
    model builds no pencil and reports the reuse of its collocation
    factor. *)

val factorisations : t -> int
(** Pencil factorisations {e this model} has performed (misses of its
    pencil's cache, the compile-time prefactorisation included). A
    healthy uniform-grid model reports [1] for its whole lifetime —
    the factor-once contract a serving layer asserts per plant. A
    spectral model reports its collocation factorisations. *)

val grid : t -> Grid.t

val basis : t -> basis
(** The basis this model was compiled in. *)

(** {2 Shared OPM helpers}

    The input projection {!Opm} re-exports (this module sits below it in
    the dependency order) and the forcing matrix every query builds. *)

val input_coefficients : grid:Grid.t -> Source.t array -> Mat.t

val bu_matrix : grid:Grid.t -> Multi_term.t -> Source.t array -> Mat.t
(** [B·U·D^r] for the projected [sources] and the system's input order
    [r]. On a uniform grid [U·D^r] is [r] passes of the recurrence
    [y_i = (2/h)(u_i − u_{i−1}) − y_{i−1}], [O(p·m·r)]; an adaptive grid
    multiplies by its dense [D]. *)
