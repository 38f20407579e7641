open Opm_signal

(** Adaptive time-step OPM (paper §III-B).

    With per-interval steps [h_i] the differential matrix column [i]
    depends only on [h_i] (eq. 25's closed form:
    [D̃_{ii} = 2/h_i], [D̃_{ji} = 4(−1)^{i−j}/h_i] for [j < i]), so the
    column-by-column solve extends *incrementally*: appending a step
    never changes earlier columns. The driver exploits this to choose
    each [h_i] on the fly — the paper's "error control mechanism" —
    by comparing a full step against two half steps and applying a
    standard step-size controller.

    Linear first-order systems only ([E ẋ = A x + B u]); fractional
    systems on a *prescribed* adaptive grid are handled by
    {!Opm.simulate_fractional} instead (their operational matrix
    couples all steps, so on-the-fly extension is not possible). *)

type stats = {
  accepted : int;  (** accepted steps (= final grid size) *)
  rejected : int;  (** rejected trial steps *)
  factorizations : int;  (** distinct diagonal-block factorisations *)
}

val max_non_finite_retries : int
(** 3 — consecutive step halvings allowed when a trial produces NaN/Inf
    before {!solve} raises [Opm_robust.Opm_error.Error (Non_finite _)]. *)

val solve :
  ?tol:float ->
  ?health:Opm_robust.Health.t ->
  ?budget:Opm_robust.Budget.t ->
  ?h_init:float ->
  ?h_min:float ->
  ?h_max:float ->
  t_end:float ->
  Descriptor.t ->
  Source.t array ->
  Sim_result.t * stats
(** [tol] is the per-step local error tolerance relative to the state
    scale (default [1e-4]). [h_init] defaults to [t_end/100]; [h_min]
    to [t_end·1e-9]; [h_max] to [t_end/4]. A step at [h_min] is
    accepted even above [tol], with a logged warning.

    A trial step whose solution contains NaN/Inf is never fed to the
    error estimate (whose NaN comparisons would reject forever):
    the step is halved — local grid refinement — up to
    {!max_non_finite_retries} consecutive times, each halving recorded
    as a [Step_halved] event in [health]; on exhaustion
    [Opm_robust.Opm_error.Error (Non_finite _)] is raised. A singular
    trial pencil raises the structured [Singular_pencil] error.

    [?budget] checks the wall-clock deadline before every trial step
    (site ["adaptive.step"]) and charges each distinct diagonal-block
    factorisation against the factor/heap caps (site
    ["adaptive.factor"]); a breach raises the structured
    [Deadline_exceeded]/[Budget_exhausted] error. *)
