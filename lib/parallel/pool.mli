(** Fixed-size reusable domain pool for the embarrassingly-parallel
    outer loops of the simulator (AC frequency points, parameter
    sweeps, frequency-domain bins, blocked matrix products).

    A pool of [domains] uses [domains − 1] spawned worker domains plus
    the submitting caller, which always participates. Work is split
    into chunks whose boundaries depend only on the problem size and
    the pool size — never on scheduling — and each index writes its own
    result slot, so every parallel entry point is bit-identical to its
    serial counterpart (no reductions, no reassociation of
    floating-point sums).

    The default pool size is resolved in priority order:
    {!set_default_domains} override, then the [OPM_DOMAINS] environment
    variable, then [Domain.recommended_domain_count ()]. A malformed or
    non-positive [OPM_DOMAINS] value falls back to the serial pool
    (one domain) with a one-time warning on stderr.

    Pools are re-entrancy safe: a nested parallel call issued from
    inside a pool job (or against a busy pool) runs serially instead of
    deadlocking. [domains = 1] spawns no workers and runs everything
    inline. *)

type t

val domains : t -> int
(** Total domain count, including the caller. *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for t ~n f] runs [f i] for every [i] in [[0, n)], split
    into deterministic contiguous chunks. [f] must only write state
    owned by its own index. If any [f i] raises, every chunk still
    completes and the exception of the lowest-numbered failing chunk is
    re-raised in the caller. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map]; output order matches input order. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** Create a pool of [domains] (default {!default_domains}: it spawns
    [domains − 1] workers), run the function, always shut the pool
    down. Raises [Invalid_argument] if [domains < 1]. *)

val default_domains : unit -> int
(** Current default pool size (override / [OPM_DOMAINS] / hardware). *)

val set_default_domains : int -> unit
(** Process-wide override (e.g. a [--domains] CLI flag); also recreates
    the {!global} pool at the new size on next use. Raises
    [Invalid_argument] if the argument is [< 1]. *)

val global : unit -> t
(** Lazily-created process-wide shared pool at {!default_domains}
    size. Used as the default by the library's parallel call sites. *)
