open Opm_signal
open Opm_core

(** Adaptive-step trapezoidal rule — the classical counterpart of
    {!Opm_core.Adaptive}, so the paper's §III-B claim ("adaptive time
    step … with lower runtime") can be benchmarked against a classical
    scheme given the same error-control machinery: step-doubling
    Richardson estimate, accept the half-step pair, move the step by
    factors of two so the LU cache keyed on the step keeps hitting. *)

type stats = {
  accepted : int;  (** accepted half-steps (= samples − 1) *)
  rejected : int;
  factorizations : int;
}

val solve :
  ?tol:float ->
  ?h_init:float ->
  t_end:float ->
  Descriptor.t ->
  Source.t array ->
  Waveform.t * stats
(** Output waveform on the accepted (non-uniform) time points, starting
    at [t = 0] with [x(0) = 0]. Defaults and step bounds match
    {!Opm_core.Adaptive.solve}. *)
