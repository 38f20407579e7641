(** The [opm_serve] daemon: simulation as a service.

    A hand-rolled HTTP/1.1 server (stdlib + [Unix] + [Thread], no
    dependencies) that accepts netlist-plus-analysis requests as JSON,
    parses and validates them with the circuit parser's error taxonomy,
    dispatches simulations as {!Opm_core.Compiled_model} queries, and
    shares one compiled model per plant across requests through a
    bounded {!Model_cache} — N clients sweeping the same circuit pay
    exactly one factorisation.

    Endpoints:
    - [GET /health] — liveness: uptime, request count, cache occupancy;
    - [GET /metrics] — the process metrics snapshot
      ({!Opm_obs.Metrics.snapshot}) plus per-plant cache statistics
      ({!Model_cache.stats_json}) and fault-injection counters;
    - [POST /solve] — one simulation ({!Protocol} request/response).

    Error mapping: request/netlist parse errors are 400, a well-formed
    request whose pencil is singular or produces non-finite output is
    422, a tripped per-request {!Opm_robust.Budget} deadline is 503,
    unknown paths/methods are 404/405, framing violations carry their
    {!Http.Error} status. Every error response is a one-line
    structured JSON body — a client never sees a hang, a raw
    exception, or a silently wrong answer.

    Fault injection: the accept loop fires the
    {!Opm_robust.Fault.Accept} site per connection and the request
    loop fires {!Opm_robust.Fault.Request_dispatch} per parsed
    request. An injected [Latency] delays and proceeds to the correct
    answer; any other kind becomes a structured 503
    ([code = "fault-injected"]) — the serving extension of the
    resilience invariant (structured error or correct answer, never a
    wrong one).

    Threading: one accept thread plus one thread per live connection
    (keep-alive, so a sweeping client holds one). The connection
    threads run on {!Opm_parallel.Pool.default_domains} host domains
    ([--domains] / [OPM_DOMAINS] / the core count): the domain that
    called {!start} and [N − 1] spawned ones. A new connection goes to
    the host with the fewest live connections, so [N] clients solve on
    [N] cores at once; with one domain nothing is spawned and every
    connection thread shares the caller's domain. Requests for one
    plant do not wait on each other: the cache's entry lock covers the
    compile only, and compiled-model queries are re-entrant. A [/solve]
    answers with {!Opm_core.Compiled_model.solve_outputs} and never
    starts the shared {!Opm_parallel.Pool}. {!stop} joins the host
    domains. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] = ephemeral (read back with {!port}) *)
  backlog : int;
  max_header : int;  (** request-head byte cap (431 beyond) *)
  max_body : int;  (** request-body byte cap (413 beyond) *)
  max_steps : int;  (** grid-size cap per request (400 beyond) *)
  cache_capacity : int;  (** resident compiled plants *)
  deadline_s : float option;
      (** default per-request wall-clock budget; a request's own
          [deadline_s] overrides *)
  read_timeout_s : float;  (** idle-socket receive timeout (408) *)
}

val default_config : config
(** [127.0.0.1:8080], 16 KiB head, 1 MiB body, 200_000 steps,
    16 plants, no default deadline, 30 s read timeout. *)

type t

val start : ?config:config -> unit -> t
(** Bind, listen, and spawn the accept thread. Enables metrics
    collection (the [/metrics] endpoint reports live counters) and
    ignores [SIGPIPE] process-wide (a peer hanging up mid-response
    must not kill the daemon). Raises [Unix.Unix_error] if the
    address cannot be bound. *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port = 0]. *)

val cache : t -> Model_cache.t

val requests : t -> int
(** Requests parsed so far (all endpoints). *)

val stop : t -> unit
(** Close the listening socket, join the accept thread, shut down the
    live connections, and join every host: each first lets its
    connection threads finish their request in flight and joins them,
    then the spawned domains are joined. Idempotent. *)
