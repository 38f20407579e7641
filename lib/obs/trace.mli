(** Nested wall-clock span tracing.

    Spans nest per domain (a domain-local stack tracks the open path),
    so tracing is safe under the {i Opm_parallel} pool: each worker's
    spans carry its own thread id in the export. Completed spans
    accumulate in a process-wide buffer.

    Like {!Metrics}, tracing is gated on one flag, {b off by default}:
    a disabled {!with_span} runs the thunk directly — no clock reads,
    no allocation beyond the closure — so instrumented code stays
    bit-identical and cheap when off.

    Two exports:
    - {!to_chrome_json}: the Chrome [trace_event] format (complete
      ["ph": "X"] events), loadable in [chrome://tracing] / Perfetto;
    - {!to_profile_string}: a flat text profile aggregated by span
      path (calls, total, mean, self time). *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all recorded spans (open span stacks are per-domain and not
    touched — do not call from inside an open span). *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span named [name], nested
    under the innermost open span of the calling domain. The span is
    recorded even when [f] raises. Disabled: exactly [f ()]. *)

val span_count : unit -> int
(** Completed spans currently buffered. *)

val to_chrome_json : unit -> Json.t
(** [{"traceEvents": [{name, cat, ph, ts, dur, pid, tid}, …],
     "displayTimeUnit": "ms"}] — [ts]/[dur] in microseconds, [ts]
    relative to the first recorded span; [tid] is the recording
    domain's id. *)

val to_profile_string : unit -> string
(** One line per distinct span path (["a/b/c"]), sorted by total time:
    call count, total, mean, and self time (total minus the time spent
    in child spans). *)
