(* Cooperative resource budget: wall-clock deadline, factorisation
   count, and a resident-heap estimate charged by the allocating code.
   All checks are explicit calls placed at column/window/step
   granularity by the solve path — nothing here preempts anything. *)

type t = {
  created : float;
  deadline : float option; (* absolute Unix time *)
  deadline_s : float option; (* original relative budget, for messages *)
  max_factors : int option;
  max_heap_bytes : int option;
  mutable factors : int;
  mutable heap_bytes : int;
  mutable peak_heap_bytes : int;
  mutable checks : int;
}

let create ?deadline_s ?max_factors ?max_heap_mb () =
  (match deadline_s with
  | Some d when d <= 0.0 -> invalid_arg "Budget.create: deadline_s <= 0"
  | _ -> ());
  (match max_factors with
  | Some k when k <= 0 -> invalid_arg "Budget.create: max_factors <= 0"
  | _ -> ());
  (match max_heap_mb with
  | Some mb when mb <= 0.0 -> invalid_arg "Budget.create: max_heap_mb <= 0"
  | _ -> ());
  let now = Unix.gettimeofday () in
  {
    created = now;
    deadline = Option.map (fun d -> now +. d) deadline_s;
    deadline_s;
    max_factors;
    max_heap_bytes =
      Option.map (fun mb -> int_of_float (mb *. 1024.0 *. 1024.0)) max_heap_mb;
    factors = 0;
    heap_bytes = 0;
    peak_heap_bytes = 0;
    checks = 0;
  }

let elapsed_s t = Unix.gettimeofday () -. t.created

(* Column-granularity call sites check at microsecond cadence while the
   deadline is seconds-scale, so reading the clock on every check would
   dominate the cost of the check itself. Consult it every [stride]-th
   call (plus the first, so short deadlines on long columns still trip
   promptly); coarse call sites (window/step boundaries) use
   [check_deadline_now] and always read the clock. *)
let deadline_stride = 32

let trip t ~site now =
  Opm_error.raise_
    (Opm_error.Deadline_exceeded
       {
         site;
         elapsed_s = now -. t.created;
         deadline_s =
           Option.value t.deadline_s
             ~default:
               (match t.deadline with
               | Some d -> d -. t.created
               | None -> 0.0);
       })

let check_deadline_now t ~site =
  t.checks <- t.checks + 1;
  match t.deadline with
  | None -> ()
  | Some d ->
      let now = Unix.gettimeofday () in
      if now > d then trip t ~site now

let check_deadline t ~site =
  t.checks <- t.checks + 1;
  match t.deadline with
  | None -> ()
  | Some d ->
      if t.checks mod deadline_stride = 1 then begin
        let now = Unix.gettimeofday () in
        if now > d then trip t ~site now
      end

let charge_bytes t ~site n =
  if n > 0 then begin
    let used = t.heap_bytes + n in
    (match t.max_heap_bytes with
    | Some limit when used > limit ->
        Opm_error.raise_ (Opm_error.Budget_exhausted { what = "heap_bytes"; used; limit; site })
    | _ -> ());
    t.heap_bytes <- used;
    if used > t.peak_heap_bytes then t.peak_heap_bytes <- used
  end

(* both caps are checked before anything is counted: a refused
   factorisation, or one whose bytes are refused, never ran *)
let charge_factor ?(bytes = 0) t ~site =
  let attempted = t.factors + 1 in
  (match t.max_factors with
  | Some limit when attempted > limit ->
      Opm_error.raise_
        (Opm_error.Budget_exhausted
           { what = "factorisations"; used = attempted; limit; site })
  | _ -> ());
  charge_bytes t ~site bytes;
  t.factors <- attempted

let factors t = t.factors
let heap_bytes t = t.heap_bytes
let peak_heap_bytes t = t.peak_heap_bytes
let checks t = t.checks

let to_json t =
  let open Opm_obs in
  let opt_int = function None -> Json.Null | Some v -> Json.Int v in
  let opt_float = function None -> Json.Null | Some v -> Json.Float v in
  Json.Obj
    [
      ("deadline_s", opt_float t.deadline_s);
      ("elapsed_s", Json.Float (elapsed_s t));
      ("max_factors", opt_int t.max_factors);
      ("factors", Json.Int t.factors);
      ("max_heap_bytes", opt_int t.max_heap_bytes);
      ("heap_bytes", Json.Int t.heap_bytes);
      ("peak_heap_bytes", Json.Int t.peak_heap_bytes);
      ("checks", Json.Int t.checks);
    ]
