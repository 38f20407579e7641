(* Versioned, checksummed checkpoint envelope.

   The payload is an opaque Json value built by the owner of the state
   (Window.run writes the solved prefix and a fingerprint of kind
   "prefix" — the Mat types live above this library). This module owns
   the envelope:

     { "schema": "opm-checkpoint-v1", "version": 1,
       "checksum": "<fnv1a64 hex of compact payload>",
       "payload": {...} }

   Writes are atomic (tmp file + rename) so a crash mid-write leaves
   the previous checkpoint intact; loads verify schema, version and
   checksum and raise structured Opm_error.Checkpoint_error on any
   mismatch. Float state must be encoded with encode_floats /
   decode_floats (IEEE-754 bits as hex), which round-trips NaN/Inf and
   every payload bit exactly — Json prints non-finite floats as null,
   and decimal round-trips would break the bit-identity contract. *)

module Json = Opm_obs.Json
module Metrics = Opm_obs.Metrics

let schema = "opm-checkpoint-v1"
let version = 1

let write_seconds = Metrics.histogram "checkpoint.write_seconds"
let writes = Metrics.counter "checkpoint.writes"
let loads = Metrics.counter "checkpoint.loads"

(* FNV-1a, 64-bit. A plain loop over a local ref keeps the hash
   unboxed; a closure over the ref would box it twice per byte. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h

let hex_of_float x =
  Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let encode_floats v =
  let b = Buffer.create (16 * Array.length v) in
  Array.iter (fun x -> Buffer.add_string b (hex_of_float x)) v;
  Json.String (Buffer.contents b)

let decode_floats j =
  match j with
  | Json.String s when String.length s mod 16 = 0 ->
      Array.init
        (String.length s / 16)
        (fun i ->
          match Int64.of_string_opt ("0x" ^ String.sub s (i * 16) 16) with
          | Some bits -> Int64.float_of_bits bits
          | None -> invalid_arg "Checkpoint.decode_floats: non-hex digit")
  | _ -> invalid_arg "Checkpoint.decode_floats: expected a hex string"

let checksum_of_payload payload = fnv1a64 (Json.to_string payload)

let io_error path message =
  Opm_error.raise_ (Opm_error.Io_error { path; message })

let save ~path payload =
  let t0 = Metrics.lap_start () in
  (match Fault.fire Fault.Checkpoint_write with
  | Some Fault.Enospc ->
      io_error path "No space left on device (injected ENOSPC)"
  | Some Fault.Latency -> Fault.latency_sleep ()
  | Some (Fault.Singular | Fault.Nan_poison) ->
      Opm_error.raise_
        (Opm_error.Fault_injected
           {
             site = Fault.site_to_string Fault.Checkpoint_write;
             kind =
               (match Fault.armed () with
               | Some p -> Fault.kind_to_string p.kind
               | None -> "unknown");
           })
  | None -> ());
  let doc =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("version", Json.Int version);
        ("checksum", Json.String (checksum_of_payload payload));
        ("payload", payload);
      ]
  in
  let tmp = path ^ ".tmp" in
  (try Json.to_file tmp doc with Sys_error m -> io_error tmp m);
  (try Sys.rename tmp path
   with Sys_error m ->
     (try Sys.remove tmp with Sys_error _ -> ());
     io_error path m);
  Metrics.incr writes;
  ignore (Metrics.lap write_seconds t0)

let cp_error path message =
  Opm_error.raise_ (Opm_error.Checkpoint_error { path; message })

let load ~path =
  Metrics.incr loads;
  let doc =
    try Json.of_file path with
    | Sys_error m -> cp_error path m
    | Json.Parse_error { pos; message } ->
        cp_error path (Printf.sprintf "parse error at offset %d: %s" pos message)
  in
  (match Json.member "schema" doc with
  | Some (Json.String s) when s = schema -> ()
  | Some (Json.String s) ->
      cp_error path (Printf.sprintf "schema %S, expected %S" s schema)
  | _ -> cp_error path "missing schema field");
  (match Option.map Json.to_int_opt (Json.member "version" doc) with
  | Some (Some v) when v = version -> ()
  | Some (Some v) ->
      cp_error path
        (Printf.sprintf "version %d not supported (this build reads %d)" v
           version)
  | _ -> cp_error path "missing version field");
  let stored =
    match Option.map Json.to_string_opt (Json.member "checksum" doc) with
    | Some (Some c) -> c
    | _ -> cp_error path "missing checksum field"
  in
  let payload =
    match Json.member "payload" doc with
    | Some p -> p
    | None -> cp_error path "missing payload field"
  in
  let actual = checksum_of_payload payload in
  if not (String.equal stored actual) then
    cp_error path
      (Printf.sprintf "checksum mismatch: stored %s, computed %s (corrupt or \
                       truncated file)" stored actual);
  payload
