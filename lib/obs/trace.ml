let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

type span = {
  name : string;
  path : string;  (* "parent/child/…" including [name] *)
  t0 : float;  (* Unix.gettimeofday at span start *)
  dur : float;  (* seconds *)
  tid : int;  (* recording domain *)
}

(* completed spans, newest first *)
let spans : span list ref = ref []

let spans_mutex = Mutex.create ()

(* per-domain stack of open span paths *)
let open_path : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let reset () =
  Mutex.lock spans_mutex;
  spans := [];
  Mutex.unlock spans_mutex

let record s =
  Mutex.lock spans_mutex;
  spans := s :: !spans;
  Mutex.unlock spans_mutex

let with_span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get open_path in
    let path =
      match stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
    in
    Domain.DLS.set open_path (path :: stack);
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Unix.gettimeofday () -. t0 in
        Domain.DLS.set open_path stack;
        record
          {
            name;
            path;
            t0;
            dur;
            tid = (Domain.self () :> int);
          })
      f
  end

let snapshot_spans () =
  Mutex.lock spans_mutex;
  let s = !spans in
  Mutex.unlock spans_mutex;
  List.rev s

let span_count () =
  Mutex.lock spans_mutex;
  let n = List.length !spans in
  Mutex.unlock spans_mutex;
  n

let to_chrome_json () =
  let all = snapshot_spans () in
  let base =
    List.fold_left (fun acc s -> Float.min acc s.t0) Float.infinity all
  in
  let events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.name);
            ("cat", Json.String "opm");
            ("ph", Json.String "X");
            ("ts", Json.Float ((s.t0 -. base) *. 1e6));
            ("dur", Json.Float (s.dur *. 1e6));
            ("pid", Json.Int 1);
            ("tid", Json.Int s.tid);
            ("args", Json.Obj [ ("path", Json.String s.path) ]);
          ])
      all
  in
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

let to_profile_string () =
  let all = snapshot_spans () in
  (* aggregate totals and call counts by path *)
  let agg : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt agg s.path with
      | Some (total, calls) ->
          total := !total +. s.dur;
          incr calls
      | None -> Hashtbl.add agg s.path (ref s.dur, ref 1))
    all;
  (* self time: subtract each span's duration from its parent's total *)
  let child_time : (string, float ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      match String.rindex_opt s.path '/' with
      | None -> ()
      | Some i ->
          let parent = String.sub s.path 0 i in
          (match Hashtbl.find_opt child_time parent with
          | Some t -> t := !t +. s.dur
          | None -> Hashtbl.add child_time parent (ref s.dur)))
    all;
  let rows =
    Hashtbl.fold
      (fun path (total, calls) acc ->
        let children =
          match Hashtbl.find_opt child_time path with
          | Some t -> !t
          | None -> 0.0
        in
        (path, !total, !calls, Float.max 0.0 (!total -. children)) :: acc)
      agg []
    |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a)
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %8s %12s %12s %12s\n" "span" "calls" "total"
       "mean" "self");
  let pp t =
    if t < 1e-3 then Printf.sprintf "%.1f us" (t *. 1e6)
    else if t < 1.0 then Printf.sprintf "%.2f ms" (t *. 1e3)
    else Printf.sprintf "%.3f s" t
  in
  List.iter
    (fun (path, total, calls, self) ->
      Buffer.add_string buf
        (Printf.sprintf "%-44s %8d %12s %12s %12s\n" path calls (pp total)
           (pp (total /. float_of_int calls))
           (pp self)))
    rows;
  Buffer.contents buf
