open Opm_signal
open Opm_core

(** Grünwald–Letnikov fractional time-stepper — an additional
    time-domain baseline for FDEs (not in the paper's comparison, but
    the standard finite-difference answer to fractional derivatives;
    included to put OPM's Table I accuracy in context).

    Approximates [d^α x/dt^α ≈ h^{−α} Σ_{j=0}^{k} w_j x_{k−j}] with the
    binomial weights [w_0 = 1], [w_j = w_{j−1}·(1 − (α+1)/j)]. Each step
    solves [(h^{−α} E − A) x_k = B u_k − h^{−α} E Σ_{j≥1} w_j x_{k−j}];
    one factorisation, but the history sum makes the total cost
    [O(n·N²)] — the quadratic-in-steps cost OPM avoids. *)

val weights : alpha:float -> int -> float array
(** First [k+1] GL binomial weights. *)

val solve :
  h:float ->
  alpha:float ->
  t_end:float ->
  Descriptor.t ->
  Source.t array ->
  Waveform.t
(** Output waveform at [t_k = k·h], zero initial history, with the full
    memory: every step sums its whole history (the GL weights have a
    heavy [j^{−α−1}] tail — exactly the long-memory property that makes
    FDEs expensive). *)
