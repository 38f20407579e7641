type event =
  | Refined of {
      column : int;
      residual_before : float;
      residual_after : float;
      kept : bool;
    }
  | Strict_refactor of { column : int }
  | Dense_fallback of { column : int }
  | Step_halved of { t : float; h : float; retry : int }

let event_to_string = function
  | Refined { column; residual_before; residual_after; kept } ->
      Printf.sprintf
        "iterative refinement on column %d: residual %.3g -> %.3g (%s)" column
        residual_before residual_after
        (if kept then "kept" else "discarded")
  | Strict_refactor { column } ->
      Printf.sprintf
        "column %d: re-factored with strict partial pivoting (pivot_tol = 1)"
        column
  | Dense_fallback { column } ->
      Printf.sprintf "column %d: sparse factorisation fell back to dense LU"
        column
  | Step_halved { t; h; retry } ->
      Printf.sprintf
        "adaptive: non-finite trial at t=%g, step halved to %g (retry %d)" t h
        retry

type t = {
  mutable columns : int;
  mutable nans : int;
  mutable infs : int;
  mutable max_residual : float;
  mutable worst_cond : float;
  mutable rev_events : event list;
  mutable stored_events : int;
  mutable total_events : int;
}

(* bounded-artifact discipline: a pathological 100K-column run keeps a
   fixed-size event buffer plus counters, never an unbounded list *)
let event_cap = 512

let create () =
  {
    columns = 0;
    nans = 0;
    infs = 0;
    max_residual = 0.0;
    worst_cond = 0.0;
    rev_events = [];
    stored_events = 0;
    total_events = 0;
  }

let record_vec t v =
  t.columns <- t.columns + 1;
  let nans, infs = Guard.count_non_finite v in
  t.nans <- t.nans + nans;
  t.infs <- t.infs + infs

let record_residual t r =
  (* a NaN residual must not be lost to [Float.max]'s NaN handling *)
  if Float.is_nan r then t.max_residual <- Float.infinity
  else if r > t.max_residual then t.max_residual <- r

let record_cond t c = if c > t.worst_cond then t.worst_cond <- c

let record_event t e =
  t.total_events <- t.total_events + 1;
  if t.stored_events < event_cap then begin
    t.rev_events <- e :: t.rev_events;
    t.stored_events <- t.stored_events + 1
  end

let columns t = t.columns
let nans t = t.nans
let infs t = t.infs
let max_residual t = t.max_residual
let worst_cond t = t.worst_cond
let events t = List.rev t.rev_events
let fallback_count t = t.total_events
let dropped_events t = t.total_events - t.stored_events

(* collapse runs of identical renderings into (line, count) pairs, so a
   column-per-column fallback storm prints once with a multiplier *)
let group_consecutive strings =
  List.fold_left
    (fun acc s ->
      match acc with
      | (s', k) :: rest when String.equal s s' -> (s', k + 1) :: rest
      | _ -> (s, 1) :: acc)
    [] strings
  |> List.rev

let counted (s, k) = if k = 1 then s else Printf.sprintf "%s ×%d" s k

let default_cond_limit = 1e8

let warnings t =
  let w = ref [] in
  let add fmt = Printf.ksprintf (fun s -> w := s :: !w) fmt in
  if t.nans > 0 || t.infs > 0 then
    add "%d NaN and %d Inf entries in the solution" t.nans t.infs;
  if t.worst_cond > default_cond_limit then
    add "worst condition estimate %.3g exceeds %.3g — expect %.0f-digit loss"
      t.worst_cond default_cond_limit
      (Float.min 16.0 (Float.max 0.0 (Float.log10 t.worst_cond)));
  if t.total_events > 0 then
    add "%d fallback event(s) taken (run was recoverable, not clean)"
      t.total_events;
  if dropped_events t > 0 then
    add "event buffer capped at %d: %d further event(s) counted but not stored"
      event_cap (dropped_events t);
  List.map counted (group_consecutive (List.rev !w))

let event_to_json e =
  let open Opm_obs in
  match e with
  | Refined { column; residual_before; residual_after; kept } ->
      Json.Obj
        [
          ("kind", Json.String "refined");
          ("column", Json.Int column);
          ("residual_before", Json.Float residual_before);
          ("residual_after", Json.Float residual_after);
          ("kept", Json.Bool kept);
        ]
  | Strict_refactor { column } ->
      Json.Obj
        [ ("kind", Json.String "strict_refactor"); ("column", Json.Int column) ]
  | Dense_fallback { column } ->
      Json.Obj
        [ ("kind", Json.String "dense_fallback"); ("column", Json.Int column) ]
  | Step_halved { t; h; retry } ->
      Json.Obj
        [
          ("kind", Json.String "step_halved");
          ("t", Json.Float t);
          ("h", Json.Float h);
          ("retry", Json.Int retry);
        ]

let to_json t =
  let open Opm_obs in
  Json.Obj
    [
      ("columns", Json.Int t.columns);
      ("nans", Json.Int t.nans);
      ("infs", Json.Int t.infs);
      ("max_residual", Json.Float t.max_residual);
      ("worst_cond", Json.Float t.worst_cond);
      ("total_events", Json.Int t.total_events);
      ("dropped_events", Json.Int (dropped_events t));
      ("events", Json.List (List.map event_to_json (events t)));
      ( "warnings",
        Json.List (List.map (fun w -> Json.String w) (warnings t))
      );
    ]

let to_string t =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "simulation health report";
  line "  columns checked:      %d" t.columns;
  line "  non-finite entries:   %d NaN, %d Inf" t.nans t.infs;
  line "  max column residual:  %.6g" t.max_residual;
  line "  worst cond estimate:  %.6g" t.worst_cond;
  line "  fallback events:      %d" t.total_events;
  List.iter
    (fun g -> line "    - %s" (counted g))
    (group_consecutive (List.map event_to_string (events t)));
  if dropped_events t > 0 then
    line "    … %d more event(s) beyond the %d-entry cap (counted, not stored)"
      (dropped_events t) event_cap;
  (match warnings t with
  | [] -> line "status: ok"
  | ws ->
      line "status: %d warning(s)" (List.length ws);
      List.iter (fun w -> line "  warning: %s" w) ws);
  Buffer.contents b
