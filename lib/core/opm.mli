open Opm_basis
open Opm_signal

(** The operational-matrix simulation algorithm (the paper's OPM).

    Each entry point expands the inputs in block-pulse functions on the
    given grid, builds the operational matrices [D^{α_k}], solves the
    coefficient equation column by column ({!Engine}) and packages the
    result as waveforms.

    Backend selection: [`Dense] uses dense LU on the diagonal blocks,
    [`Sparse] the sparse GP LU; [`Auto] (default) picks sparse for
    systems larger than 64 states.

    All transient entry points accept [?health], an
    {!Opm_robust.Health.t} collector threaded into the engine's
    fallback cascade (see {!Engine}): NaN/Inf counts, residuals,
    condition estimates and fallback events are recorded into it and
    the filled report is carried on the returned {!Sim_result.t}.
    Collection never changes the computed waveforms.

    Windowed streaming: the transient entry points accept [?window:w],
    which tiles the horizon into [⌈m/w⌉] windows solved by the
    {!Window} driver — one shared pencil factorisation across all
    windows, state handed across boundaries (exact endpoint transfer
    for order-1 systems, history-tail RHS correction otherwise; see
    {!Window}). [?memory_len] truncates the fractional history tail
    (default: full tail = exact). Requires a uniform grid. [w ≥ m] (and
    [?window] omitted) runs the ordinary global solve, so the
    degenerate window is bit-identical to an unwindowed run; raises
    [Invalid_argument] when [w < 1].

    Crash safety: the transient entry points accept [?budget]
    (cooperative deadline/factor/heap enforcement — see
    {!Opm_robust.Budget}) and, on windowed runs, [?checkpoint]/
    [?checkpoint_every]/[?resume_from] (resumable window-boundary
    snapshots — see {!Window.solve}; requesting a checkpoint without
    [?window] raises [Invalid_argument]). A mid-run breach on a windowed
    solve raises {!Window.Interrupted} with the completed prefix. *)

type backend = [ `Auto | `Dense | `Sparse ]

(** Basis selection: the transient entry points accept
    [?basis:`Spectral] to swap the block-pulse expansion for the
    Jacobi-Gauss spectral collocation backend ({!Spectral_solver}).
    [Grid.size grid] then counts collocation nodes — a few dozen
    replace thousands of block pulses on smooth sources (exponential
    vs [O(h²)] convergence), while discontinuous sources are BPF
    territory (Gibbs; see DESIGN.md §18). Spectral runs are global
    dense solves: [?window]/[?memory_len]/checkpointing and adaptive
    grids raise [Invalid_argument]. *)

val simulate_linear :
  ?backend:backend ->
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
  Descriptor.t ->
  Source.t array ->
  Sim_result.t
(** Transient analysis of [E ẋ = A x + B u], [x(0) = x₀] (paper §III;
    default [x₀ = 0]). The source array must have one entry per system
    input. Linear systems take the §III-A fast path: the order-1
    operational matrix's special pattern reduces the per-column history
    to one running sum, so the cost is [O(n^β + n·m)] like one-step
    transient schemes. *)

val simulate_fractional :
  ?backend:backend ->
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
  alpha:float ->
  Descriptor.t ->
  Source.t array ->
  Sim_result.t
(** [E d^α x/dt^α = A x + B u] (paper §IV, eq. 19/27), Caputo
    initialisation at [x₀] (default 0; higher-order initial derivatives
    are taken as zero). On adaptive grids the steps must be pairwise
    distinct (paper eq. 25); see
    {!Block_pulse.fractional_differential_matrix}. *)

val simulate_multi_term :
  ?backend:backend ->
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
    fractional CPEs). *)

val simulate_linear_integral :
  ?backend:backend ->
  ?health:Opm_robust.Health.t ->
  ?budget:Opm_robust.Budget.t ->
  ?x0:Opm_numkit.Vec.t ->
  grid:Grid.t ->
  Descriptor.t ->
  Source.t array ->
  Sim_result.t
(** Integral-form OPM (see {!Engine.running_sum}): integrates the
    system once and solves [E X = A X H + B U H + E x₀ 1ᵀ]. Agrees with
    {!simulate_linear} to within discretisation error; exists because
    the formulation generalises to bases without a differentiation
    matrix and carries initial conditions natively.

    Accepts the same [?backend]/[?health]/[?budget] contract as the
    differential entry points — the columns run behind the full
    fallback cascade, so [opm_sim --check] reports on this path too.
    The block-pulse integration weights are constant down each column
    of [H], so the history is one running sum [A·Σ_{j<i} h_j x_j]: O(n)
    carried state and [O(n^β·#distinct steps + n·m)] cost on any
    horizon, which is why this entry point needs no [?window]. *)

val input_coefficients : grid:Grid.t -> Source.t array -> Opm_numkit.Mat.t
(** BPF coefficient matrix [U] ([p×m], eq. 11) of the inputs — exposed
    for custom drivers and tests. *)
