(** Bounded cross-request cache of compiled plants.

    The whole point of serving OPM models is that the expensive,
    source-independent half of a simulation — basis expansion,
    operational matrices, FFT plan, pencil factorisation — is done once
    per {e plant} ({!Opm_core.Compiled_model.compile}) and every request
    is a cheap query. This cache realises that across requests: entries
    are keyed by the {!Protocol.fingerprint} of the stamped system plus
    grid/window configuration, so N clients sweeping the same circuit
    with different sources share exactly one compiled model and pay
    exactly one factorisation (asserted per-plant via
    {!Opm_core.Compiled_model.factorisations}).

    Concurrency contract: each entry carries its own mutex, and it
    covers compile only. A cold key inserts a placeholder under the
    table lock and compiles under the entry lock, so two simultaneous
    cold requests for one plant compile once (the second blocks, then
    queries). Queries run outside every cache lock: compiled-model
    queries are re-entrant, so requests for one plant solve in parallel
    on as many domains as serve them, as requests for different plants
    do.

    Capacity is bounded: beyond [capacity] plants the least-recently
    used {e idle} entry is evicted. In-flight entries are pinned by
    their reference count and never evicted mid-request; pinned entries
    may transiently push the table over capacity. A compile failure
    removes the placeholder so later requests retry instead of
    inheriting a poisoned entry. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 16 plants. Raises [Invalid_argument] if
    [capacity < 1]. *)

val with_model :
  t ->
  key:string ->
  compile:(unit -> Opm_core.Compiled_model.t) ->
  (cached:bool -> Opm_core.Compiled_model.t -> 'a) ->
  'a
(** Run one request against the plant [key]: pin the entry, compile it
    if this request is the first ([cached] tells the callback whether
    it reused an existing model), run the callback outside every cache
    lock, unpin. Exceptions from [compile] evict the placeholder and
    re-raise; exceptions from the callback unpin and re-raise. *)

val length : t -> int
(** Plants currently resident. *)

val pinned : t -> int
(** Entries with in-flight requests right now. *)

val evictions : t -> int

val stats_json : t -> Opm_obs.Json.t
(** [{capacity, length, pinned, hits, misses, evictions, plants}] with
    one [{plant, requests, queries, factorisations, factor_reuse}]
    row per resident entry — the per-plant factor statistics the
    [/metrics] endpoint exposes. *)
