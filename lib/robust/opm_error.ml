type t =
  | Singular_pencil of {
      column : int;
      step : int;
      pivot : float;
      name : string option;
    }
  | Non_finite of {
      stage : string;
      column : int option;
      nans : int;
      infs : int;
    }
  | Deadline_exceeded of { site : string; elapsed_s : float; deadline_s : float }
  | Budget_exhausted of { what : string; used : int; limit : int; site : string }
  | Io_error of { path : string; message : string }
  | Checkpoint_error of { path : string; message : string }
  | Fault_injected of { site : string; kind : string }

exception Error of t

let raise_ e = raise (Error e)

let column_suffix = function
  | None -> ""
  | Some c -> Printf.sprintf " (time column %d)" c

let to_string = function
  | Singular_pencil { column; step; pivot; name } ->
      let who =
        match name with
        | Some n -> Printf.sprintf "state %S (index %d)" n step
        | None -> Printf.sprintf "elimination step %d" step
      in
      Printf.sprintf
        "singular pencil: no acceptable pivot at %s while solving time \
         column %d (best candidate %.3g) — the circuit has a redundant or \
         contradictory constraint (e.g. a shorted/duplicated voltage source \
         or a floating subcircuit)"
        who column pivot
  | Non_finite { stage; column; nans; infs } ->
      Printf.sprintf
        "non-finite result in stage %S%s: %d NaN and %d Inf entries survived \
         every fallback" stage (column_suffix column) nans infs
  | Deadline_exceeded { site; elapsed_s; deadline_s } ->
      Printf.sprintf
        "deadline exceeded at %s: %.3f s elapsed against a %.3f s budget \
         (partial results up to the last completed window are available)"
        site elapsed_s deadline_s
  | Budget_exhausted { what; used; limit; site } ->
      Printf.sprintf "budget exhausted at %s: %s used %d of %d allowed" site
        what used limit
  | Io_error { path; message } ->
      Printf.sprintf "i/o error on %S: %s" path message
  | Checkpoint_error { path; message } ->
      Printf.sprintf "checkpoint error on %S: %s" path message
  | Fault_injected { site; kind } ->
      Printf.sprintf "injected fault fired at site %s (kind %s)" site kind

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Opm_error.Error: " ^ to_string e)
    | _ -> None)
