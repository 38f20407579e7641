open Opm_numkit
open Opm_basis
open Opm_signal

(** Spectral Jacobi-Gauss collocation solver for the multi-term pencil

    [Σ_k E_k · d^{α_k} x / dt^{α_k} = A x + B d^r u/dt^r]

    in the [{0} ∪ Gauss] collocation basis of {!Opm_basis.Jacobi}: the
    state is represented by its values at [m] Gauss nodes (anchored at
    [x(0) = x₀] through the extra node at 0), the fractional
    derivatives act as dense [m × m] collocation matrices, and the
    coupled system is solved through its Kronecker form

    [[Σ_k (D^{α_k} ⊗ E_k) − I_m ⊗ A] vec(X) = vec(B·U)]

    factored {e once} with {!Opm_numkit.Lu.factor_profile} — [O((nm)³)]
    at worst, less when sparse [E_k] and [A] give the state-major
    operator a block-banded profile; worthwhile
    exactly because spectral [m] stays tiny (a few dozen nodes replace
    thousands of block pulses on smooth sources). Guardrails from
    [lib/robust] apply: the factorisation records a Hager/Higham
    condition estimate into [?health], raises structured
    [Opm_error.Singular_pencil]/[Non_finite] errors, and a {!solve}
    checks the deadline of its [?budget].

    Inputs are {e sampled} at the collocation nodes (no projection
    integrals); the input derivative of [input_order = r] systems is
    applied [r] times via the exact classical differentiation matrix on
    the full node set.

    The collocation operator is input-dependent nowhere, so
    factor-once/query-many works unchanged: {!compile} factors,
    {!solve} queries reuse the factors — {!factorisations} stays 1 for
    the model's lifetime.

    Sharp edges (see DESIGN.md §18): the grid must be uniform ([m] is
    the number of collocation nodes, outputs are sampled at the [m]
    BPF midpoints of the same grid), and discontinuous sources lose
    the spectral rate to Gibbs oscillations — block pulses are the
    right basis there. *)

type t

val compile :
  ?health:Opm_robust.Health.t ->
  grid:Grid.t ->
  Multi_term.t ->
  t
(** Build the collocation layout, the [D^{α_k}] matrices and the
    factored Kronecker operator — everything input-independent.
    [Grid.size grid] is the number of collocation nodes. Raises
    [Invalid_argument] on adaptive grids. *)

val solve :
  ?health:Opm_robust.Health.t ->
  ?budget:Opm_robust.Budget.t ->
  ?x0:Vec.t ->
  t ->
  Source.t array ->
  Sim_result.t
(** One query: sample the sources at the nodes, apply the
    [z = x − x₀] substitution (the operator annihilates constants
    under the zero-initial-derivative convention, so only the
    right-hand side sees [x₀]), back-solve against the compiled
    factors, and resample the interpolant onto the grid midpoints for
    the {!Sim_result} output waveform. *)

val solve_nodal : t -> Source.t array -> Mat.t
(** Raw query with zero initial state: the [n × m] state values at the
    Gauss collocation nodes (no resampling, no output projection). *)

val sample : t -> Mat.t -> float array -> Mat.t
(** [sample t z times] evaluates the anchored interpolant through the
    nodal values [z] ([n × m], zero at [t = 0]) at arbitrary [times] —
    the spectral-accuracy way to compare against references on grids
    much finer than [m] (linear waveform resampling would drown the
    spectral error in interpolation error). *)

val factorisations : t -> int
(** Always 1: the compile-time factorisation. *)

val factor_reuse : t -> int
(** Queries served from the compiled factors (one per {!solve}/
    {!solve_nodal}). *)
