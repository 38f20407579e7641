(* Bounded plant cache: table mutex for membership/eviction, one mutex
   per entry for compile-once. Queries run outside both: a compiled
   model is re-entrant. Lock order is table → entry, never the
   reverse. *)

module Compiled_model = Opm_core.Compiled_model
module Json = Opm_obs.Json

type entry = {
  key : string;
  lock : Mutex.t;
  mutable model : Compiled_model.t option;  (* None while compiling *)
  mutable refs : int;  (* in-flight requests pinning this entry *)
  mutable last_used : int;  (* LRU clock stamp *)
  mutable requests : int;
}

type t = {
  capacity : int;
  mu : Mutex.t;
  table : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 16) () =
  if capacity < 1 then
    invalid_arg "Model_cache.create: capacity must be >= 1";
  {
    capacity;
    mu = Mutex.create ();
    table = Hashtbl.create 32;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Drop least-recently-used idle entries until within capacity. Pinned
   entries (refs > 0) are never evicted — a burst of distinct in-flight
   plants may transiently exceed capacity. Called with [t.mu] held. *)
let evict_to_capacity t =
  let continue = ref true in
  while Hashtbl.length t.table > t.capacity && !continue do
    let victim = ref None in
    Hashtbl.iter
      (fun _ e ->
        if e.refs = 0 then
          match !victim with
          | Some v when v.last_used <= e.last_used -> ()
          | _ -> victim := Some e)
      t.table;
    match !victim with
    | None -> continue := false
    | Some e ->
        Hashtbl.remove t.table e.key;
        t.evictions <- t.evictions + 1
  done

let unpin t entry =
  locked t.mu (fun () -> entry.refs <- entry.refs - 1)

(* A compile failure must not leave a model-less placeholder that later
   requests treat as "someone is compiling": remove it so they retry.
   A concurrent request may already hold a pin on the placeholder; it
   will observe [model = None] under the entry lock and recompile. *)
let drop_failed t entry =
  locked t.mu (fun () ->
      entry.refs <- entry.refs - 1;
      match Hashtbl.find_opt t.table entry.key with
      | Some e when e == entry -> Hashtbl.remove t.table entry.key
      | _ -> ())

let with_model t ~key ~compile f =
  let entry =
    locked t.mu (fun () ->
        let e =
          match Hashtbl.find_opt t.table key with
          | Some e ->
              t.hits <- t.hits + 1;
              e
          | None ->
              t.misses <- t.misses + 1;
              let e =
                {
                  key;
                  lock = Mutex.create ();
                  model = None;
                  refs = 0;
                  last_used = 0;
                  requests = 0;
                }
              in
              Hashtbl.replace t.table key e;
              e
        in
        e.refs <- e.refs + 1;
        t.clock <- t.clock + 1;
        e.last_used <- t.clock;
        e.requests <- e.requests + 1;
        evict_to_capacity t;
        e)
  in
  Mutex.lock entry.lock;
  let model, cached =
    match entry.model with
    | Some m -> (m, true)
    | None -> (
        match compile () with
        | m ->
            entry.model <- Some m;
            (m, false)
        | exception e ->
            Mutex.unlock entry.lock;
            drop_failed t entry;
            raise e)
  in
  Mutex.unlock entry.lock;
  match f ~cached model with
  | result ->
      unpin t entry;
      result
  | exception e ->
      unpin t entry;
      raise e

let length t = locked t.mu (fun () -> Hashtbl.length t.table)

let pinned t =
  locked t.mu (fun () ->
      Hashtbl.fold (fun _ e n -> if e.refs > 0 then n + 1 else n) t.table 0)

let hits t = locked t.mu (fun () -> t.hits)
let misses t = locked t.mu (fun () -> t.misses)
let evictions t = locked t.mu (fun () -> t.evictions)

let stats_json t =
  locked t.mu (fun () ->
      let plants =
        Hashtbl.fold
          (fun key e acc ->
            let model_stats =
              match e.model with
              | None -> []
              | Some m ->
                  [
                    ("queries", Json.Int (Compiled_model.queries m));
                    ( "factorisations",
                      Json.Int (Compiled_model.factorisations m) );
                    ("factor_reuse", Json.Int (Compiled_model.factor_reuse m));
                  ]
            in
            Json.Obj
              (("plant", Json.String key)
              :: ("requests", Json.Int e.requests)
              :: model_stats)
            :: acc)
          t.table []
      in
      Json.Obj
        [
          ("capacity", Json.Int t.capacity);
          ("length", Json.Int (Hashtbl.length t.table));
          ( "pinned",
            Json.Int
              (Hashtbl.fold
                 (fun _ e n -> if e.refs > 0 then n + 1 else n)
                 t.table 0) );
          ("hits", Json.Int t.hits);
          ("misses", Json.Int t.misses);
          ("evictions", Json.Int t.evictions);
          ("plants", Json.List plants);
        ])
