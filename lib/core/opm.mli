open Opm_basis
open Opm_signal

(** The operational-matrix simulation algorithm (the paper's OPM).

    Each entry point expands the inputs in block-pulse functions on the
    given grid, builds the operational matrices [D^{α_k}], solves the
    coefficient equation column by column ({!Engine}) and packages the
    result as waveforms.

    Every diagonal block is factored by the sparse LU ({!Opm_sparse.Slu}),
    behind the engine's fallback cascade.

    {!simulate_multi_term} takes every option below;
    {!simulate_fractional} takes the windowing and crash-safety ones;
    {!simulate_linear} takes none (it is
    [simulate_multi_term (Multi_term.of_linear sys)]).

    [?health] is an {!Opm_robust.Health.t} collector threaded into the
    engine's fallback cascade (see {!Engine}): NaN/Inf counts,
    residuals, condition estimates and fallback events are recorded
    into it, and the caller reads the filled collector it passed.
    Collection never changes the computed waveforms.

    Windowed streaming: [?window:w] puts a boundary every [w] columns
    of the one column loop (see {!Window}): without [?memory_len] the
    result is the unwindowed one, bit for bit. [?memory_len] cuts the
    fractional history at each window start to the last [K] columns;
    integer orders stay exact. Requires a uniform grid. [w ≥ m] (and
    [?window] omitted) runs the ordinary global solve; raises
    [Invalid_argument] when [w < 1].

    Crash safety: [?budget] (cooperative deadline/factor/heap
    enforcement — see {!Opm_robust.Budget}) and, on windowed runs,
    [?checkpoint]/[?checkpoint_every]/[?resume_from] (resumable
    window-boundary snapshots — see {!Window.run}; requesting a
    checkpoint without [?window] raises [Invalid_argument]). A mid-run
    breach on a windowed solve raises {!Window.Interrupted} with the
    completed prefix.

    Basis selection: [?basis:`Spectral] swaps the block-pulse expansion
    for the Jacobi-Gauss spectral collocation operator
    ({!Spectral_solver}). [Grid.size grid] then counts collocation
    nodes — a few dozen replace thousands of block pulses on smooth
    sources (exponential vs [O(h²)] convergence), while discontinuous
    sources are BPF territory (Gibbs; see DESIGN.md §18). Spectral runs
    are global dense solves: [?window]/[?memory_len]/checkpointing and
    adaptive grids raise [Invalid_argument]. *)

val simulate_linear : grid:Grid.t -> Descriptor.t -> Source.t array -> Sim_result.t
(** Transient analysis of [E ẋ = A x + B u], [x(0) = 0] (paper §III).
    The source array must have one entry per system input. Linear
    systems take the §III-A fast path: the order-1
    operational matrix's special pattern reduces the per-column history
    to one running sum, so the cost is [O(n^β + n·m)] like one-step
    transient schemes. *)

val simulate_fractional :
  ?budget:Opm_robust.Budget.t ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume_from:string ->
  ?window:int ->
  ?memory_len:int ->
  grid:Grid.t ->
  alpha:float ->
  Descriptor.t ->
  Source.t array ->
  Sim_result.t
(** [E d^α x/dt^α = A x + B u] (paper §IV, eq. 19/27) from a zero
    initial state. On adaptive grids the steps must be pairwise
    distinct (paper eq. 25); see
    {!Block_pulse.fractional_differential_matrix}. *)

val simulate_multi_term :
  ?basis:Compiled_model.basis ->
  ?health:Opm_robust.Health.t ->
  ?budget:Opm_robust.Budget.t ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume_from:string ->
  ?x0:Opm_numkit.Vec.t ->
  ?window:int ->
  ?memory_len:int ->
  grid:Grid.t ->
  Multi_term.t ->
  Source.t array ->
  Sim_result.t
(** General engine: high-order systems (Table II's second-order NA
    model) and multi-term FDEs (e.g. circuits mixing capacitors with
    fractional CPEs). [?x0] is the initial state (default 0): Caputo
    initialisation, higher-order initial derivatives taken as zero. *)

val input_coefficients : grid:Grid.t -> Source.t array -> Opm_numkit.Mat.t
(** BPF coefficient matrix [U] ([p×m], eq. 11) of the inputs — exposed
    for custom drivers and tests. *)
