open Opm_sparse
open Opm_signal
open Opm_core

(** Shared machinery of the classical one/two-step implicit transient
    methods the paper benchmarks OPM against (Table II): backward
    Euler, trapezoidal rule and Gear's method (BDF2).

    Each scheme advances [E ẋ = A x + B u] with a fixed step [h] from
    [x(0) = 0] and factorises its iteration matrix exactly once —
    matching the complexity regime OPM is compared to. The run is
    streaming: only the most recent state vector (two for Gear) is
    live, so paper-scale grids (n ≈ 10⁵, thousands of steps) cost
    O(n) state memory. *)

type scheme = Backward_euler | Trapezoidal | Gear2

val solve :
  ?symbolic:Slu.symbolic option ref ->
  scheme:scheme ->
  h:float ->
  t_end:float ->
  Descriptor.t ->
  Source.t array ->
  Waveform.t
(** Output waveform [y = C x] sampled at [t_k = k·h], [k = 0 … ⌈T/h⌉].
    Gear's first step falls back to backward Euler. Raises
    [Invalid_argument] on non-positive [h] or [t_end], or if the source
    count does not match the system's inputs.

    [?symbolic] shares one sparse symbolic analysis across every
    iteration matrix factored through it: all schemes' pencils carry
    the union sparsity pattern of [E] and [A], so Gear's two matrices
    — and runs of {e different} schemes on the same system when the
    caller passes one hint throughout — pay the symbolic work once
    ({!Slu.factor_hinted}). *)
