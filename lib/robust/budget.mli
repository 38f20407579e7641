(** Cooperative deadline and resource budgets.

    A [Budget.t] is a mutable context a caller threads through
    [Engine]/[Window]/[Adaptive]/[Compiled_model] (as [?budget]). The
    solve path calls {!check_deadline} at column/window/step
    granularity and {!charge_factor}/{!charge_bytes} wherever it
    allocates or factorises; on breach a structured
    [Opm_error.Deadline_exceeded] / [Opm_error.Budget_exhausted] is
    raised at the next check-point. Enforcement is cooperative — a
    breach is noticed at the granularity of the checks, never by
    preemption — so the solution prefix computed before the breach is
    always internally consistent and (in the windowed driver)
    delivered to the caller together with a resumable checkpoint.

    When no budget is passed the solve paths skip every check; the
    disabled-path cost is one [Option] match per column (gated < 2%
    on the Table I kernel by [bench resilience]). *)

type t

val create :
  ?deadline_s:float -> ?max_factors:int -> ?max_heap_mb:float -> unit -> t
(** [create ()] with no limits never trips; each limit is optional.
    [deadline_s] is a wall-clock allowance measured from [create].
    [max_heap_mb] bounds the *estimated* resident matrix heap: sites
    that allocate factors/matrices charge their size and the running
    total is compared against this bound (it is an accounting
    estimate, not an OS resident-set probe). Raises [Invalid_argument]
    on non-positive limits. *)

val check_deadline : t -> site:string -> unit
(** Raise [Opm_error.Deadline_exceeded] if the wall clock has passed
    the deadline; [site] names the cooperative check-point. Intended
    for hot (per-column) call sites: the clock is consulted on the
    first and every 32nd check, so the detection latency is at most 32
    columns while the per-check cost stays at a counter increment. *)

val check_deadline_now : t -> site:string -> unit
(** Like {!check_deadline} but always reads the clock — for coarse
    call sites (window boundaries, adaptive trial steps). *)

val charge_factor : ?bytes:int -> t -> site:string -> unit
(** Count one factorisation (and optionally its estimated footprint);
    raise [Opm_error.Budget_exhausted] if the cap is exceeded. *)

val charge_bytes : t -> site:string -> int -> unit
(** Add [n] bytes to the resident-heap estimate and check the cap. *)

val elapsed_s : t -> float
val factors : t -> int
val heap_bytes : t -> int
val peak_heap_bytes : t -> int

val checks : t -> int
(** Number of deadline checks performed (observability). *)

val to_json : t -> Opm_obs.Json.t
(** Snapshot for the report's [resilience] section. *)
