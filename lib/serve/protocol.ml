(* opm-serve-v1 wire protocol: strict request validation (closed field
   vocabulary — a typo'd analysis field must not silently simulate the
   default), plant fingerprinting over the *stamped* system, and the
   error taxonomy → HTTP status mapping. *)

open Opm_circuit
module Json = Opm_obs.Json
module Checkpoint = Opm_robust.Checkpoint
module Opm_error = Opm_robust.Opm_error

exception Reject of { status : int; code : string; message : string }

let reject status code fmt =
  Printf.ksprintf
    (fun message -> raise (Reject { status; code; message }))
    fmt

type analysis = {
  t_end : float;
  steps : int;
  window : int option;
  memory_len : int option;
  probes : string list option;
  deadline_s : float option;
  basis : Opm_core.Compiled_model.basis;
}

type parsed = { netlist : Netlist.t; analysis : analysis }

let analysis_fields =
  [ "t_end"; "steps"; "window"; "memory_len"; "probes"; "deadline_s"; "basis" ]

let parse_request ?(max_steps = 200_000) body =
  let doc =
    try Json.of_string body
    with Json.Parse_error { pos; message } ->
      reject 400 "json" "request body is not valid JSON (byte %d: %s)" pos
        message
  in
  (match doc with
  | Json.Obj kvs ->
      List.iter
        (fun (k, _) ->
          if k <> "netlist" && k <> "analysis" then
            reject 400 "request" "unknown top-level field %S" k)
        kvs
  | _ -> reject 400 "request" "request body must be a JSON object");
  let netlist_text =
    match Json.member "netlist" doc with
    | Some (Json.String s) -> s
    | Some _ -> reject 400 "request" "\"netlist\" must be a string"
    | None -> reject 400 "request" "missing field \"netlist\""
  in
  let fields =
    match Json.member "analysis" doc with
    | Some (Json.Obj kvs) -> kvs
    | Some _ -> reject 400 "request" "\"analysis\" must be an object"
    | None -> reject 400 "request" "missing field \"analysis\""
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k analysis_fields) then
        reject 400 "request" "unknown analysis field %S" k)
    fields;
  let field k = List.assoc_opt k fields in
  let t_end =
    match field "t_end" with
    | None -> reject 400 "request" "missing analysis field \"t_end\""
    | Some v -> (
        match Json.to_float_opt v with
        | Some x when Float.is_finite x && x > 0.0 -> x
        | _ -> reject 400 "request" "\"t_end\" must be a finite number > 0")
  in
  let steps =
    match field "steps" with
    | None -> reject 400 "request" "missing analysis field \"steps\""
    | Some v -> (
        match Json.to_int_opt v with
        | Some n when n >= 1 && n <= max_steps -> n
        | Some n ->
            reject 400 "request" "\"steps\" = %d outside [1, %d]" n max_steps
        | None -> reject 400 "request" "\"steps\" must be an integer")
  in
  let opt_pos_int k =
    match field k with
    | None -> None
    | Some v -> (
        match Json.to_int_opt v with
        | Some n when n >= 1 -> Some n
        | _ -> reject 400 "request" "%S must be an integer >= 1" k)
  in
  let window = opt_pos_int "window" in
  let memory_len = opt_pos_int "memory_len" in
  if memory_len <> None && window = None then
    reject 400 "request" "\"memory_len\" requires \"window\"";
  let probes =
    match field "probes" with
    | None -> None
    | Some v -> (
        match Json.to_list_opt v with
        | Some l ->
            Some
              (List.map
                 (fun x ->
                   match Json.to_string_opt x with
                   | Some s when s <> "" -> s
                   | _ ->
                       reject 400 "request"
                         "\"probes\" must be a list of non-empty node names")
                 l)
        | None -> reject 400 "request" "\"probes\" must be a list of node names")
  in
  let deadline_s =
    match field "deadline_s" with
    | None -> None
    | Some v -> (
        match Json.to_float_opt v with
        | Some x when Float.is_finite x && x > 0.0 -> Some x
        | _ -> reject 400 "request" "\"deadline_s\" must be a number > 0")
  in
  let basis =
    match field "basis" with
    | None -> `Bpf
    | Some (Json.String "bpf") -> `Bpf
    | Some (Json.String "spectral") -> `Spectral
    | Some _ ->
        reject 400 "request" "\"basis\" must be \"bpf\" or \"spectral\""
  in
  if basis = `Spectral && window <> None then
    reject 400 "request"
      "\"window\" requires the block-pulse basis (spectral models are global)";
  let netlist =
    try Parser.parse_string netlist_text
    with Parser.Parse_error { line; message } ->
      reject 400 "netlist" "netlist line %d: %s" line message
  in
  {
    netlist;
    analysis = { t_end; steps; window; memory_len; probes; deadline_s; basis };
  }

let probe_outputs a =
  Option.map (List.map (fun n -> Mna.Node_voltage n)) a.probes

(* Fingerprint the *stamped* system, floats bit-exact as IEEE-754 hex
   (Checkpoint.encode_floats): netlist text that stamps identically —
   comments, element order, source-waveform-only edits — must share
   one compiled model, and nothing that changes the pencil, the
   projection or the grid may collide. *)

let csr_payload m =
  let open Opm_sparse in
  let r, c = Csr.dims m in
  let idx = ref [] and vals = ref [] in
  Csr.iter
    (fun i j v ->
      idx := Json.Int ((i * c) + j) :: !idx;
      vals := v :: !vals)
    m;
  Json.Obj
    [
      ("r", Json.Int r);
      ("c", Json.Int c);
      ("idx", Json.List (List.rev !idx));
      ("val", Checkpoint.encode_floats (Array.of_list (List.rev !vals)));
    ]

let mat_payload m =
  let open Opm_numkit in
  let r, c = Mat.dims m in
  let vals = Array.init (r * c) (fun k -> Mat.get m (k / c) (k mod c)) in
  Json.Obj
    [ ("r", Json.Int r); ("c", Json.Int c); ("val", Checkpoint.encode_floats vals) ]

let opt_int = function None -> Json.Null | Some n -> Json.Int n

let fingerprint ~sys ~t_end ~steps ~window ~memory_len ~basis =
  let open Opm_core.Multi_term in
  let names a = Json.List (Array.to_list (Array.map (fun s -> Json.String s) a)) in
  let payload =
    Json.Obj
      [
        ("schema", Json.String "opm-serve-plant-v1");
        ( "terms",
          Json.List
            (List.map
               (fun { coeff; alpha } ->
                 Json.Obj
                   [
                     ("alpha", Checkpoint.encode_floats [| alpha |]);
                     ("coeff", csr_payload coeff);
                   ])
               sys.terms) );
        ("a", csr_payload sys.a);
        ("b", mat_payload sys.b);
        ("c", mat_payload sys.c);
        ("input_order", Json.Int sys.input_order);
        ("state_names", names sys.state_names);
        ("output_names", names sys.output_names);
        ("t_end", Checkpoint.encode_floats [| t_end |]);
        ("steps", Json.Int steps);
        ("window", opt_int window);
        ("memory_len", opt_int memory_len);
        (* spectral and BPF compiles of the same plant share every field
           above — the basis must split the cache key *)
        ( "basis",
          Json.String
            (match basis with `Bpf -> "bpf" | `Spectral -> "spectral") );
      ]
  in
  Checkpoint.checksum_of_payload payload

let status_of_error (e : Opm_error.t) =
  match e with
  | Singular_pencil _ -> (422, "singular-pencil")
  | Non_finite _ -> (422, "non-finite")
  | Deadline_exceeded _ -> (503, "deadline")
  | Budget_exhausted _ -> (503, "budget")
  | Io_error _ -> (500, "io")
  | Checkpoint_error _ -> (500, "checkpoint")
  | Fault_injected _ -> (500, "fault-injected")

let error_body ~status ~code ~message =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "opm-serve-v1");
         ( "error",
           Json.Obj
             [
               ("status", Json.Int status);
               ("code", Json.String code);
               ("message", Json.String message);
             ] );
       ])

let ok_body ~plant ~cached ~factorisations ~factor_reuse ~queries ~outputs =
  let open Opm_signal in
  let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a)) in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "opm-serve-v1");
         ("plant", Json.String plant);
         ("cached", Json.Bool cached);
         ("factorisations", Json.Int factorisations);
         ("factor_reuse", Json.Int factor_reuse);
         ("queries", Json.Int queries);
         ("times", floats outputs.Waveform.times);
         ( "labels",
           Json.List
             (Array.to_list
                (Array.map (fun s -> Json.String s) outputs.Waveform.labels)) );
         ( "outputs",
           Json.List
             (Array.to_list (Array.map floats outputs.Waveform.channels)) );
       ])
