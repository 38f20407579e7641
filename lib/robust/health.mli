(** Simulation health report.

    A mutable collector threaded (optionally) through the solve path.
    The engine records, per column: NaN/Inf counts, the residual
    [‖(Σ_k d_ii E_k − A) x_i − rhs_i‖∞] (whose column-wise maximum
    equals [‖Σ_k E_k X D_k − A X − BU‖∞] for the triangular solvers),
    the worst 1-norm condition estimate seen on any diagonal-block
    factor, and every fallback the cascade took. Collection is
    observational: passing a collector never changes the computed
    solution (the cascade runs with or without one). *)

type event =
  | Refined of {
      column : int;
      residual_before : float;
      residual_after : float;
      kept : bool;  (** refined column kept (residual improved) *)
    }  (** one step of iterative refinement was attempted *)
  | Strict_refactor of { column : int }
      (** sparse diagonal block re-factored with [pivot_tol = 1.0] *)
  | Dense_fallback of { column : int }
      (** sparse factorisation abandoned for a dense LU *)
  | Step_halved of { t : float; h : float; retry : int }
      (** adaptive driver halved a step that produced non-finite values *)

type t

val create : unit -> t

(** {2 Recording (engine side)} *)

val record_vec : t -> float array -> unit
(** Count the NaN/Inf entries of a result column. *)

val record_residual : t -> float -> unit

val record_cond : t -> float -> unit

val record_event : t -> event -> unit

(** {2 Reading (driver side)} *)

val columns : t -> int
(** Result columns checked so far (one {!record_vec} each). *)

val nans : t -> int

val infs : t -> int

val max_residual : t -> float
(** [0.] when no residual was recorded. *)

val worst_cond : t -> float
(** [0.] when no factor was estimated. *)

val events : t -> event list
(** In chronological order; at most {!event_cap} entries are stored
    (bounded-artifact discipline — events past the cap are counted but
    dropped, so a pathological 100K-column fallback storm cannot OOM
    the collector). *)

val fallback_count : t -> int
(** Total events recorded, {e including} those dropped past the cap. *)

val event_cap : int
(** Fixed storage bound on {!events} (512). *)

val dropped_events : t -> int
(** Events recorded beyond the cap ([fallback_count - stored]). *)

val default_cond_limit : float
(** [1e8] — above this 1-norm condition estimate the engine attempts
    one step of iterative refinement and the report flags a warning. *)

val warnings : t -> string list
(** Empty iff the run was clean: finite everywhere, no fallback events,
    worst condition estimate at most {!default_cond_limit}. *)

val to_string : t -> string
(** Multi-line report: counters first, then fallback events, then
    warnings (or ["status: ok"]). *)

val to_json : t -> Opm_obs.Json.t
(** The same report as a JSON object
    [{columns, nans, infs, max_residual, worst_cond, events, warnings}]
    — the ["health"] block of an {i Opm_obs.Report} document. A clean
    run has empty [events] and [warnings]. *)
