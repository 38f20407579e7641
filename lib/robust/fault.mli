(** Seeded, deterministic fault injection.

    A single global {!plan} (armed programmatically with {!arm} or
    from the [OPM_FAULT_PLAN] environment variable) describes one
    fault: at which instrumented {!site}, of which {!kind}, on which
    1-based occurrence ([nth]) of that site. Instrumented code calls
    [fire site] at each occurrence and interprets a returned kind
    mechanically — e.g. the engine's factor site simulates a pivot
    failure for [Singular] (exercising the strict-refactor recovery),
    the column-solve site overwrites a solution entry with NaN for
    [Nan_poison] (exercising the non-finite cascade), the checkpoint
    writer raises a simulated ENOSPC, and [Latency] sleeps a seeded
    1–5 ms. Kinds with no natural mechanical simulation at a site are
    raised as structured [Opm_error.Fault_injected] — the invariant,
    asserted by [bench resilience] over the full site × kind matrix,
    is that an injected fault always yields a structured error or a
    correct recovery, never a silently wrong answer.

    The plan string is [seed:site:nth] (kind derived deterministically
    from the seed) or [seed:site:kind:nth] (explicit). Sites:
    [factor], [column-solve], [fft-block], [window-handoff],
    [checkpoint-write], [pool-dispatch], [accept], [request-dispatch].
    Kinds: [singular], [nan-poison], [enospc], [latency].

    When no plan is armed, [fire] is one atomic load — the
    disabled-path overhead gated by [bench resilience]. Counters are
    atomic; the pool-dispatch site fires from worker domains and the
    two server sites from the daemon's accept/connection threads. *)

type site =
  | Factor  (** pencil factorisation (sparse LU) *)
  | Column_solve  (** per-column triangular solve *)
  | Fft_block  (** FFT blocked-convolution history query *)
  | Window_handoff  (** column state carried across a window boundary *)
  | Checkpoint_write  (** atomic checkpoint file write *)
  | Pool_dispatch  (** parallel-pool chunk dispatch *)
  | Accept  (** [opm_serve] connection accept *)
  | Request_dispatch  (** [opm_serve] parsed-request dispatch *)

type kind = Singular | Nan_poison | Enospc | Latency

type plan = { seed : int; site : site; kind : kind; nth : int }

val all_sites : site list
val all_kinds : kind list

val site_to_string : site -> string
val kind_to_string : kind -> string

val plan_of_string : string -> (plan, string) result
(** Parse [seed:site:nth] or [seed:site:kind:nth]; [nth] is 1-based. *)

val arm : plan -> unit
(** Install the plan and reset all occurrence counters. *)

val disarm : unit -> unit

val armed : unit -> plan option

val arm_from_env : unit -> (bool, string) result
(** Arm from [OPM_FAULT_PLAN] if set; [Ok true] when a plan was armed,
    [Ok false] when the variable is unset/empty, [Error msg] when it
    is malformed. *)

val fire : site -> kind option
(** Count one occurrence of [site]; return the armed kind iff this is
    the plan's [nth] occurrence of the plan's site. [None] always when
    disarmed. *)

val latency_sleep : unit -> unit
(** Sleep the plan's seeded 1–5 ms latency (call on [Some Latency]). *)

val injected_total : unit -> int
(** Faults actually fired since the last [arm]/[disarm]. *)

val stats_json : unit -> Opm_obs.Json.t
(** [{armed, occurrences, injected, injected_total}] for the report's
    [resilience] section. *)
