open Opm_numkit

(** Windowed streaming OPM driver.

    A window is a slice of the one column loop, not a second operator:
    on a uniform grid [D^α] is one upper-triangular Toeplitz operator
    over the whole horizon (paper §III-A), so the windowed solve of a
    horizon of [m] columns is the global {!Engine.run} with a boundary
    hook every [w] columns (the last window possibly shorter). Without
    [?memory_len] its columns are those of the global solve, bit for
    bit. The hook commits each window to the caller's sink, calls
    [?on_window], writes the checkpoint, and runs the [window-handoff]
    fault site and the ["window.boundary"] deadline check (see
    {!Engine.run}).

    {2 Short memory}

    [~memory_len:K] keeps a window-aligned cutoff: at each window start
    [s] the fractional history is rebuilt from columns
    [max 0 (s − K) … s − 1]; a column [i] of that window sees the lags
    back to [s − K]. The engine's banded recast carries integer orders
    (and the integer part [N = ⌊α⌋] of every order) exactly, whatever
    [K], singular [E] (MNA/DAE systems) included; only the fractional
    kernel [κ = (1−q)^α (1+q)^{N−α}] is cut. Its weights alternate and
    decay like [lag^{β−1}] ([β = α − N]), so a fixed per-column cut of
    [K] lags would not be sound; the window-aligned cutoff keeps at
    least [K] lags for every column. A truncated solve commits a
    relative error empirically below {!truncation_mass}.

    Observability: [window.count] counts windows, [window.factor_reuse]
    the pencil lookups served from the factor cache, and
    [window.handoff_seconds] observes the time of each boundary (commit,
    [on_window], checkpoint). The run is one ["window.solve"] span. *)

type stats = {
  windows : int;  (** number of windows, [⌈m/w⌉] *)
  width : int;  (** effective window width [min w m] *)
  memory_len : int;  (** effective history length [K] ([m] for full memory) *)
  factor_hits : int;
      (** pencil-factor lookups served from the cache {e during this
          call}: 1 on a uniform grid whose block a compiled model has
          prefactored, 0 on a pencil never factored before *)
  factor_misses : int;  (** factorisations actually computed this call *)
  handoff_seconds : float;
      (** total wall time spent at window boundaries: commits,
          [on_window] and checkpoint writes *)
}

val truncation_mass : alpha:float -> lags:int -> memory_len:int -> float
(** [truncation_mass ~alpha ~lags ~memory_len] =
    [Σ_{K < j ≤ lags} |κ_j| / Σ_{1 ≤ j ≤ lags} |κ_j|] for the banded
    kernel [κ = (1−q)^α (1+q)^{N−α}], [N = ⌊α⌋], of one term of order
    [α] (the only part a memory cutoff drops) — the fraction of history
    weight a [memory_len = K] cutoff discards over a horizon with
    [lags] ([= m − 1]) reachable lags. [0.] for integer [α] (carried
    exactly) and whenever nothing is truncated; the windowed-vs-global
    relative error of a truncated solve is empirically below this mass
    (see [test/test_window.ml]). *)

exception
  Interrupted of {
    error : Opm_robust.Opm_error.t;
        (** the breach: [Deadline_exceeded], [Budget_exhausted], or an
            [Io_error] from a checkpoint write *)
    partial : Mat.t;
        (** every committed window's columns, [n × (completed·w)] (or
            [n × m] once the last window is in) — a usable prefix of the
            horizon, never a partially solved window *)
    completed_windows : int;
    checkpoint : string option;
        (** path of the last checkpoint successfully written this run
            (or restored from), if any — pass it back as [~resume_from]
            to continue *)
  }
(** Raised by {!run} when a {!Opm_robust.Budget} breach or a
    checkpoint-write failure interrupts a run. The in-flight window is
    discarded; everything before it is in [partial]. *)

val run :
  ?memory_len:int ->
  ?on_window:(index:int -> start:int -> Mat.t -> unit) ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume_from:string ->
  window:int ->
  Engine.ctx ->
  Engine.pencil ->
  Engine.history ->
  bu:(int -> Vec.t) ->
  emit:(int -> Vec.t -> unit) ->
  stats
(** [run ~window:w ctx pencil history ~bu ~emit] prepares the plan and
    runs the column loop with a boundary every [w] columns. Column [i]
    of the forcing is [bu i] ({!Engine.run}). Each window's columns
    reach [emit i x_i], in order, only once the whole window is solved;
    [?on_window] then gets its index, starting column and [n×wlen]
    block. The history must belong to a uniform grid ({!Engine.toeplitz}
    or {!Engine.alternating} over one step): the checkpoint fingerprint
    identifies it by its column-0 block. [w ≥ m] is a single window.

    {2 Crash safety}

    The context's budget is checked at every column (site
    ["engine.column"]) and boundary (["window.boundary"]). A breach
    raises {!Interrupted} carrying the committed prefix; the driver
    keeps that prefix only when a budget or a checkpoint is given.

    [?checkpoint] writes a resumable snapshot (envelope
    ["opm-checkpoint-v1"], see {!Opm_robust.Checkpoint}) after every
    [?checkpoint_every]-th window (default 1) and after the final one.
    The payload is the solved prefix, hex-encoded IEEE-754 bits, and a
    fingerprint of ([n], [m], [w], effective memory length, the
    column-0 block key, backend, a digest of the forcing). The
    fingerprint's [kind] is ["prefix"]: files of the older ring-state
    payload (kind ["general"]) and of the retired order-1 endpoint path
    (kind ["linear"]) are refused with [Checkpoint_error]. Writes are
    atomic (tmp + rename).

    [?resume_from] loads such a snapshot, emits its prefix to [emit],
    replays it into the column state ({!Engine.run}'s [?replay]) and
    continues from the next window. The fingerprint must match the
    current call exactly or [Checkpoint_error] is raised. A resumed run
    is bit-identical to the uninterrupted one. [?on_window] is {e not}
    re-fired for restored windows.

    Raises [Invalid_argument] when [window < 1], [memory_len < 0] or
    [checkpoint_every < 1]. *)
