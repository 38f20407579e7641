(* Fixed-size reusable domain pool.

   A pool owns [domains − 1] worker domains plus the submitting caller,
   which participates in every job, so [create ~domains:4] uses exactly
   four domains in steady state. Workers are spawned once and reused
   across jobs — the per-job cost is a mutex/condition handshake, not a
   [Domain.spawn].

   Determinism: [parallel_for] splits the index range into chunks with
   boundaries that depend only on the range and the pool size — never on
   scheduling — and every index writes its own result slot, so a
   parallel run is bit-identical to the serial one. There are no
   reductions and therefore no reassociation of floating-point sums.

   Exceptions raised inside a job are caught per chunk; after every
   chunk has finished, the exception from the lowest-numbered failing
   chunk is re-raised in the submitting domain (again deterministic —
   the same chunk wins regardless of interleaving).

   [domains = 1] is a strict serial fallback: no workers are spawned and
   jobs run inline on the caller. *)

module Metrics = Opm_obs.Metrics
module Fault = Opm_robust.Fault
module Opm_error = Opm_robust.Opm_error

(* observability instruments (no-ops unless metrics are enabled) *)
let m_jobs = Metrics.counter "pool.jobs"
let m_inline_jobs = Metrics.counter "pool.inline_jobs"
let m_chunks = Metrics.counter "pool.chunks"
let h_chunk_seconds = Metrics.histogram "pool.chunk_seconds"
let h_job_wait_seconds = Metrics.histogram "pool.job_wait_seconds"

(* Seeded fault site: fired once per dispatched chunk (pool and inline
   paths alike — the counters are atomic, so worker domains race
   safely). The raised [Fault_injected] travels through the same
   per-chunk error machinery as a genuine job exception, so the
   resilience harness exercises exactly the propagation a real crash
   would take. *)
let fire_dispatch () =
  match Fault.fire Fault.Pool_dispatch with
  | None -> ()
  | Some Fault.Latency -> Fault.latency_sleep ()
  | Some ((Fault.Singular | Fault.Nan_poison | Fault.Enospc) as k) ->
      Opm_error.raise_
        (Opm_error.Fault_injected
           {
             site = Fault.site_to_string Fault.Pool_dispatch;
             kind = Fault.kind_to_string k;
           })

type job = { run : int -> unit; n_chunks : int }

type t = {
  domains : int; (* total domains, including the caller *)
  mutex : Mutex.t;
  work : Condition.t; (* new job available / shutdown *)
  finished : Condition.t; (* all chunks of the current job done *)
  mutable job : job option;
  mutable next_chunk : int;
  mutable done_chunks : int;
  mutable generation : int; (* bumped once per submitted job *)
  mutable error : (int * exn * Printexc.raw_backtrace) option;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

(* Re-entrancy guard: a nested [parallel_for] issued from inside a pool
   job (e.g. a parallel matrix product called from a parallel sweep)
   runs serially instead of deadlocking on the busy pool. *)
let inside_job : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let record_error t chunk e bt =
  Mutex.lock t.mutex;
  (match t.error with
  | Some (c, _, _) when c <= chunk -> ()
  | Some _ | None -> t.error <- Some (chunk, e, bt));
  Mutex.unlock t.mutex

(* Grab and run chunks of the current job until none remain. Called with
   [t.mutex] held; returns with it released. [t.job] may already be
   [None] if a late-waking worker observes a job the caller has fully
   completed and retired — that is a no-op, not an error. *)
let run_chunks t =
  match t.job with
  | None -> Mutex.unlock t.mutex
  | Some job ->
  let rec loop () =
    if t.next_chunk >= job.n_chunks then Mutex.unlock t.mutex
    else begin
      let chunk = t.next_chunk in
      t.next_chunk <- chunk + 1;
      Mutex.unlock t.mutex;
      let saved = Domain.DLS.get inside_job in
      Domain.DLS.set inside_job true;
      Metrics.incr m_chunks;
      (try
         Metrics.time h_chunk_seconds (fun () ->
             fire_dispatch ();
             job.run chunk)
       with e -> record_error t chunk e (Printexc.get_raw_backtrace ()));
      Domain.DLS.set inside_job saved;
      Mutex.lock t.mutex;
      t.done_chunks <- t.done_chunks + 1;
      if t.done_chunks >= job.n_chunks then Condition.broadcast t.finished;
      loop ()
    end
  in
  loop ()

let worker t =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while (not t.stop) && t.generation = !seen do
      Condition.wait t.work t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      seen := t.generation;
      run_chunks t (* releases the mutex *)
    end
  done

(* Warn (once) about a malformed OPM_DOMAINS rather than silently
   picking the hardware count: a typo like "OPM_DOMAINS=eight" or a
   stray "-4" degrades to the safe serial pool so results are still
   reproducible, and the stderr note tells the user why. *)
let env_warned = ref false

let env_domains () =
  match Sys.getenv_opt "OPM_DOMAINS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> Some (min d 512)
      | Some _ | None ->
          if not !env_warned then begin
            env_warned := true;
            Printf.eprintf
              "opm: warning: OPM_DOMAINS=%S is not a positive integer; \
               running serially\n%!"
              s
          end;
          Some 1)

(* Explicit process-wide override (e.g. a --domains CLI flag); takes
   precedence over OPM_DOMAINS, which takes precedence over the
   hardware count. *)
let override = ref None

let default_domains () =
  match !override with
  | Some d -> d
  | None -> (
      match env_domains () with
      | Some d -> d
      | None -> max 1 (Domain.recommended_domain_count ()))

let create ?domains () =
  let domains =
    match domains with Some d -> d | None -> default_domains ()
  in
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  let t =
    {
      domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = None;
      next_chunk = 0;
      done_chunks = 0;
      generation = 0;
      error = None;
      stop = false;
      workers = [||];
    }
  in
  t.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let domains t = t.domains

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

(* Submit a chunked job and participate until it completes. Falls back
   to inline execution when the pool is serial, already busy, or when
   called from inside one of its own jobs. *)
let run_job t ~n_chunks run =
  if n_chunks <= 0 then ()
  else if Array.length t.workers = 0 || Domain.DLS.get inside_job then begin
    Metrics.incr m_inline_jobs;
    for chunk = 0 to n_chunks - 1 do
      fire_dispatch ();
      run chunk
    done
  end
  else begin
    Mutex.lock t.mutex;
    if t.job <> None then begin
      (* another submitter's job is in flight: run inline *)
      Mutex.unlock t.mutex;
      Metrics.incr m_inline_jobs;
      for chunk = 0 to n_chunks - 1 do
        fire_dispatch ();
        run chunk
      done
    end
    else begin
      Metrics.incr m_jobs;
      t.job <- Some { run; n_chunks };
      t.next_chunk <- 0;
      t.done_chunks <- 0;
      t.error <- None;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work;
      run_chunks t (* releases the mutex *);
      Mutex.lock t.mutex;
      (* submitter idle time: blocked on workers after finishing its own
         share of the chunks *)
      Metrics.time h_job_wait_seconds (fun () ->
          while t.done_chunks < n_chunks do
            Condition.wait t.finished t.mutex
          done);
      t.job <- None;
      let err = t.error in
      t.error <- None;
      Mutex.unlock t.mutex;
      match err with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* Chunk boundaries depend only on [n] and [n_chunks] — fixed a priori,
   independent of which domain runs which chunk. *)
let chunk_bounds ~n ~n_chunks chunk =
  (chunk * n / n_chunks, (chunk + 1) * n / n_chunks)

let parallel_for t ~n f =
  if n < 0 then invalid_arg "Pool.parallel_for: negative range";
  if n > 0 then
    if Array.length t.workers = 0 || Domain.DLS.get inside_job then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let n_chunks = min n (4 * t.domains) in
      run_job t ~n_chunks (fun chunk ->
          let lo, hi = chunk_bounds ~n ~n_chunks chunk in
          for i = lo to hi - 1 do
            f i
          done)
    end

let map t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if Array.length t.workers = 0 || Domain.DLS.get inside_job then
    Array.map f xs
  else begin
    let out = Array.make n None in
    parallel_for t ~n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some v -> v | None -> assert false) out
  end

(* ------------------------------------------------------------------ *)
(* Process-wide shared pool                                            *)

let global_pool = ref None
let global_mutex = Mutex.create ()

let global () =
  Mutex.lock global_mutex;
  let p =
    match !global_pool with
    | Some p -> p
    | None ->
        let p = create () in
        global_pool := Some p;
        p
  in
  Mutex.unlock global_mutex;
  p

(* Override the default domain count (CLI flag). Tears down the shared
   pool so the next [global ()] picks the new size up. *)
let set_default_domains d =
  if d < 1 then invalid_arg "Pool.set_default_domains: domains < 1";
  override := Some d;
  Mutex.lock global_mutex;
  let old = !global_pool in
  global_pool := None;
  Mutex.unlock global_mutex;
  match old with Some p -> shutdown p | None -> ()

let with_pool ?domains f =
  let p = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
