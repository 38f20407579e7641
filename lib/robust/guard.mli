(** Bounded-retry combinators and finiteness checks.

    These are the small, allocation-free primitives the fallback
    cascades are written with: "try this, then that", "retry at most
    [max] times", "is this vector clean". They never loop unboundedly
    and never swallow an exception they were not asked to. *)

val is_finite : float array -> bool
(** Every entry is neither NaN nor infinite. *)

val count_non_finite : float array -> int * int
(** [(nans, infs)] entry counts. *)

val protect : (unit -> 'a) -> ('a, exn) result
(** Capture any exception as a value (for cascades that must try the
    next rung even when the previous one raised). *)
