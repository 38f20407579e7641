open Opm_signal
open Opm_core

(** Frequency-domain (FFT) solver for fractional descriptor systems —
    the comparison method of the paper's Table I ("FFT-1" with 8
    samples, "FFT-2" with 100).

    Implemented as the damped-contour numerical Laplace inversion of
    the paper's references (Bellman, Davies–Martin, Gómez–Uribe): the
    input is multiplied by [e^{−σt}] and sampled on [[0, T)],
    transformed with the FFT, the transfer relation
    [(s^α E − A) X(s) = B U(s)] is solved with a complex LU on the
    contour [s = σ + jω_k], and the inverse FFT plus [e^{+σt}]
    recovers the response. The damping suppresses the DFT's periodic
    wrap-around (the raw [σ = 0] variant diverges on step inputs); the
    method still — as the paper stresses — pays for complex
    arithmetic, and its accuracy is controlled only indirectly by the
    sample count. *)

val solve :
  ?pool:Opm_parallel.Pool.t ->
  n_samples:int ->
  alpha:float ->
  t_end:float ->
  Descriptor.t ->
  Source.t array ->
  Waveform.t
(** Output waveform at the [n_samples] sample instants [t_k = k·T/N].
    The contour abscissa is [σ = 3/T]. The independent per-bin contour
    solves run on [pool] (default: the shared
    {!Opm_parallel.Pool.global} pool) with bit-identical results.
    Raises [Invalid_argument] for [n_samples < 2], [t_end <= 0] or a
    source-count mismatch. *)
