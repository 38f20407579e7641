open Opm_circuit

(** The [opm-serve-v1] wire protocol: request parsing/validation, plant
    fingerprinting, and the structured-error → HTTP-status mapping.

    A [/solve] request body is

    {[ { "netlist":  "<netlist source>",
         "analysis": { "t_end": 1e-3, "steps": 512,
                       "window": 128, "memory_len": 64,
                       "probes": ["out"], "deadline_s": 2.0,
                       "basis": "spectral" } } ]}

    with [window]/[memory_len]/[probes]/[deadline_s]/[basis] optional
    and the field vocabulary closed — unknown fields are rejected, so a
    typo'd sweep fails loudly instead of silently simulating the
    default. [basis] is ["bpf"] (default) or ["spectral"] (Jacobi-Gauss
    collocation — [steps] becomes the collocation-node count; rejects
    [window]). [window] puts a boundary every [window] steps of the
    one column loop: alone it changes no output bit; [memory_len]
    (which requires it) cuts the fractional history at each window
    start to the last [memory_len] steps.
    Netlist syntax and element semantics are delegated to
    {!Opm_circuit.Parser} and reported with its line numbers; every
    rejection is a one-line structured JSON error.

    Responses carry floats printed by {!Opm_obs.Json} (shortest decimal
    that round-trips, [%.17g] fallback), so a client parsing the JSON
    recovers bit-identical values to an in-process [Opm.simulate_*]
    call — the property the serving differential test asserts. *)

exception Reject of { status : int; code : string; message : string }
(** A request-level rejection: [status] is the HTTP status to answer
    with, [code] a stable machine-readable token (["json"],
    ["request"], ["netlist"], …). *)

type analysis = {
  t_end : float;
  steps : int;
  window : int option;
  memory_len : int option;
  probes : string list option;  (** node names; [None] = all nodes *)
  deadline_s : float option;  (** per-request wall-clock budget *)
  basis : Opm_core.Compiled_model.basis;  (** discretisation basis *)
}

type parsed = { netlist : Netlist.t; analysis : analysis }

val parse_request : ?max_steps:int -> string -> parsed
(** Parse and validate one [/solve] body. Raises {!Reject} (status 400)
    on malformed JSON, unknown/ill-typed/missing fields, out-of-range
    values ([steps] is capped at [max_steps], default 200_000 — the
    grid is the server's memory bound) or a netlist syntax error. *)

val probe_outputs : analysis -> Mna.probe list option
(** The [?outputs] argument for {!Mna.stamp} ([None] when the request
    left probes at the default). *)

val fingerprint :
  sys:Opm_core.Multi_term.t ->
  t_end:float ->
  steps:int ->
  window:int option ->
  memory_len:int option ->
  basis:Opm_core.Compiled_model.basis ->
  string
(** Plant cache key: FNV-1a-64 checksum (16 hex digits) over the
    {e stamped} system — term αs and coefficient sparsity/values
    bit-exact via IEEE-754 hex, [A]/[B]/[C], input order, names — plus
    the grid, window and basis configuration (spectral and BPF compiles
    of the same plant must never collide). Keying on the stamped pencil
    rather than the netlist text means two textually different
    netlists that stamp to the same system (comments, source-waveform
    changes, element order) share one compiled model, which is what
    makes "N clients sweeping one circuit pay one factorisation"
    true for sweeps that vary only the sources. *)

val status_of_error : Opm_robust.Opm_error.t -> int * string
(** Solve-time error → [(status, code)]: singular / non-finite pencils
    422 (the request is well-formed but unprocessable); deadline /
    budget exhaustion 503 (retryable with a bigger budget); I/O,
    checkpoint and injected faults 500. Netlist parse errors never reach
    the solver: {!parse_request} rejects them with 400. *)

val error_body : status:int -> code:string -> message:string -> string
(** One-line [{"schema":"opm-serve-v1","error":{status,code,message}}]. *)

val ok_body :
  plant:string ->
  cached:bool ->
  factorisations:int ->
  factor_reuse:int ->
  queries:int ->
  outputs:Opm_signal.Waveform.t ->
  string
(** Success body: schema tag, plant fingerprint, cache disposition,
    per-plant factor statistics and the output waveform
    ([times]/[labels]/[outputs] per channel). *)
