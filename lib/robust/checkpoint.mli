(** Versioned, checksummed, atomically-written checkpoint files.

    This module owns the on-disk envelope only; the *payload* is an
    opaque [Opm_obs.Json] value built by the owner of the state
    ([Window.run] serialises its solved prefix here — the matrix types
    live above this library). Envelope format:

    {v
    { "schema": "opm-checkpoint-v1", "version": 1,
      "checksum": "<fnv1a-64 hex of the compact payload text>",
      "payload": { ... } }
    v}

    {!save} writes to [path ^ ".tmp"] then renames, so an interrupted
    write (crash, injected ENOSPC) leaves the previous checkpoint
    intact — the property the kill/resume differential test relies
    on. {!load} verifies schema, version and checksum and raises
    structured [Opm_error.Checkpoint_error] on any mismatch.

    Float state must round-trip bit-exactly (a resumed run is
    bit-identical to an uninterrupted one), so array payloads are
    encoded as IEEE-754 bits in hex via {!encode_floats} — JSON
    decimal text cannot represent NaN/Inf and would tempt lossy
    round-trips. *)

val encode_floats : float array -> Opm_obs.Json.t
(** 16 lowercase hex digits per element (IEEE-754 bits, big-endian
    digit order); round-trips every bit pattern including NaN/Inf. *)

val decode_floats : Opm_obs.Json.t -> float array
(** Inverse of {!encode_floats}; raises [Invalid_argument] on
    malformed input (callers wrap into [Checkpoint_error]). *)

val checksum_of_payload : Opm_obs.Json.t -> string
(** FNV-1a 64-bit over the compact serialisation, as 16 hex digits. *)

val save : path:string -> Opm_obs.Json.t -> unit
(** Atomic write (tmp + rename) of the enveloped payload. Raises
    [Opm_error.Io_error] on filesystem failure. This is the
    [Checkpoint_write] fault-injection site: an armed [Enospc] raises
    the structured error {e before} touching the file, [Latency]
    sleeps, other kinds raise [Fault_injected]. Observability:
    [checkpoint.writes] counter and [checkpoint.write_seconds] lap
    histogram. *)

val load : path:string -> Opm_obs.Json.t
(** Parse, verify schema/version/checksum, return the payload. Raises
    [Opm_error.Checkpoint_error] on a missing, unparsable, wrong-
    version or corrupt file. *)
