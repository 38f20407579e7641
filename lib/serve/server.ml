(* The opm_serve daemon: accept thread + one thread per keep-alive
   connection, the connection threads spread over a few host domains,
   requests dispatched as Compiled_model queries against the shared
   plant cache. Every failure path funnels into one
   structured-JSON response helper — a client can observe a 4xx/5xx
   body or a correct answer, never a raw exception, a hang, or a
   silently wrong result (the serving extension of the resilience
   invariant, exercised by the Accept/Request_dispatch fault sites). *)

module Fault = Opm_robust.Fault
module Budget = Opm_robust.Budget
module Opm_error = Opm_robust.Opm_error
module Compiled_model = Opm_core.Compiled_model
module Window = Opm_core.Window
module Grid = Opm_basis.Grid
module Mna = Opm_circuit.Mna
module Json = Opm_obs.Json
module Metrics = Opm_obs.Metrics

type config = {
  host : string;
  port : int;
  backlog : int;
  max_header : int;
  max_body : int;
  max_steps : int;
  cache_capacity : int;
  deadline_s : float option;
  read_timeout_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    backlog = 64;
    max_header = 16 * 1024;
    max_body = 1024 * 1024;
    max_steps = 200_000;
    cache_capacity = 16;
    deadline_s = None;
    read_timeout_s = 30.0;
  }

(* A domain the daemon serves on: the domain that called [start], or
   one it spawned. A host's loop thread takes new connections from
   [inbox], spawns a thread per connection on its domain, and joins
   them as they finish. [live] counts the connections assigned to the
   host and not yet finished, queued ones included. *)
type host = {
  live : int Atomic.t;
  mu : Mutex.t;
  wake : Condition.t;
  inbox : Unix.file_descr Queue.t;
  mutable finished : Thread.t list;  (* returned connection threads, to join *)
  mutable closing : bool;
}

type t = {
  cfg : config;
  sock : Unix.file_descr;
  bound_port : int;
  cache : Model_cache.t;
  running : bool Atomic.t;
  active : int Atomic.t;
  request_count : int Atomic.t;
  started : float;
  conns_mu : Mutex.t;
  mutable conns : Unix.file_descr list;
  mutable accept_thread : Thread.t option;
  hosts : host array;
  mutable joins : (unit -> unit) list;  (* one per host loop *)
  mutable stopped : bool;
}

let m_requests = Metrics.counter "serve.requests"
let m_2xx = Metrics.counter "serve.responses_2xx"
let m_4xx = Metrics.counter "serve.responses_4xx"
let m_5xx = Metrics.counter "serve.responses_5xx"
let m_solve = Metrics.counter "serve.solve"
let m_faults = Metrics.counter "serve.faults_injected"
let h_request = Metrics.histogram "serve.request_seconds"

let count_status status =
  if status < 400 then Metrics.incr m_2xx
  else if status < 500 then Metrics.incr m_4xx
  else Metrics.incr m_5xx

(* Best-effort response write: the peer may be gone (EPIPE with SIGPIPE
   ignored, ECONNRESET) — that ends the connection, not the daemon. *)
let respond fd ~status ?close ~body () =
  count_status status;
  try
    Http.write_response fd ~status ?close ~body ();
    true
  with Unix.Unix_error _ -> false

let reject_of_exn = function
  | Protocol.Reject { status; code; message } -> Some (status, code, message)
  | Opm_error.Error e ->
      let status, code = Protocol.status_of_error e in
      Some (status, code, Opm_error.to_string e)
  | Window.Interrupted { error; _ } ->
      let status, code = Protocol.status_of_error error in
      Some (status, code, Opm_error.to_string error)
  | Invalid_argument msg -> Some (400, "request", msg)
  | _ -> None

(* ---- endpoint bodies ---- *)

let health_body t =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "opm-serve-v1");
         ("status", Json.String "ok");
         ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
         ("requests", Json.Int (Atomic.get t.request_count));
         ("active_connections", Json.Int (Atomic.get t.active));
         ("plants", Json.Int (Model_cache.length t.cache));
         ("pinned", Json.Int (Model_cache.pinned t.cache));
       ])

let metrics_body t =
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.String "opm-serve-v1");
         ( "server",
           Json.Obj
             [
               ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
               ("requests", Json.Int (Atomic.get t.request_count));
               ("active_connections", Json.Int (Atomic.get t.active));
             ] );
         ("cache", Model_cache.stats_json t.cache);
         ("fault", Fault.stats_json ());
         ("metrics", Metrics.snapshot ());
       ])

let handle_solve t body =
  Metrics.incr m_solve;
  let parsed = Protocol.parse_request ~max_steps:t.cfg.max_steps body in
  let a = parsed.Protocol.analysis in
  let sys, sources =
    try Mna.stamp ?outputs:(Protocol.probe_outputs a) parsed.Protocol.netlist
    with Invalid_argument message ->
      raise (Protocol.Reject { status = 400; code = "request"; message })
  in
  let key =
    Protocol.fingerprint ~sys ~t_end:a.t_end ~steps:a.steps ~window:a.window
      ~memory_len:a.memory_len ~basis:a.basis
  in
  let deadline_s =
    match a.deadline_s with Some _ as d -> d | None -> t.cfg.deadline_s
  in
  let budget = Option.map (fun d -> Budget.create ~deadline_s:d ()) deadline_s in
  Model_cache.with_model t.cache ~key
    ~compile:(fun () ->
      let grid = Grid.uniform ~t_end:a.t_end ~m:a.steps in
      Compiled_model.compile ~basis:a.basis ?window:a.window
        ?memory_len:a.memory_len ~grid sys)
    (fun ~cached model ->
      (* the response carries outputs only: stream them, never holding
         the n×m state matrix *)
      let outputs = Compiled_model.solve_outputs ?budget model sources in
      Protocol.ok_body ~plant:key ~cached
        ~factorisations:(Compiled_model.factorisations model)
        ~factor_reuse:(Compiled_model.factor_reuse model)
        ~queries:(Compiled_model.queries model)
        ~outputs)

(* strip any query string before matching the path *)
let path_of_target target =
  match String.index_opt target '?' with
  | Some i -> String.sub target 0 i
  | None -> target

let route t (req : Http.request) =
  match (req.meth, path_of_target req.target) with
  | ("GET" | "HEAD"), "/health" -> (200, health_body t)
  | ("GET" | "HEAD"), "/metrics" -> (200, metrics_body t)
  | "POST", "/solve" -> (
      match handle_solve t req.body with
      | body -> (200, body)
      | exception e -> (
          match reject_of_exn e with
          | Some (status, code, message) ->
              (status, Protocol.error_body ~status ~code ~message)
          | None ->
              ( 500,
                Protocol.error_body ~status:500 ~code:"internal"
                  ~message:(Printexc.to_string e) )))
  | _, ("/health" | "/metrics" | "/solve") ->
      ( 405,
        Protocol.error_body ~status:405 ~code:"method"
          ~message:
            (Printf.sprintf "%s does not accept %s" (path_of_target req.target)
               req.meth) )
  | _, path ->
      ( 404,
        Protocol.error_body ~status:404 ~code:"path"
          ~message:(Printf.sprintf "no such endpoint %S" path) )

(* ---- connection lifecycle ---- *)

let register_conn t fd =
  Mutex.lock t.conns_mu;
  t.conns <- fd :: t.conns;
  Mutex.unlock t.conns_mu

let unregister_conn t fd =
  Mutex.lock t.conns_mu;
  t.conns <- List.filter (fun c -> c != fd) t.conns;
  Mutex.unlock t.conns_mu

let handle_conn t fd =
  (try Unix.setsockopt_float fd SO_RCVTIMEO t.cfg.read_timeout_s
   with Unix.Unix_error _ -> ());
  let conn = Http.conn fd in
  let closing = ref false in
  (try
     while (not !closing) && Atomic.get t.running do
       match
         Http.read_request ~max_header:t.cfg.max_header
           ~max_body:t.cfg.max_body conn
       with
       | None -> closing := true
       | exception Http.Error { status; message } ->
           (* framing violation: structured one-liner, then close — the
              byte stream is unsynchronised so keep-alive is over *)
           ignore
             (respond fd ~status ~close:true
                ~body:(Protocol.error_body ~status ~code:"http" ~message)
                ());
           closing := true
       | Some req ->
           Atomic.incr t.request_count;
           Metrics.incr m_requests;
           let t0 = Metrics.lap_start () in
           if Http.wants_close req then closing := true;
           let injected =
             match Fault.fire Request_dispatch with
             | None -> false
             | Some Latency ->
                 Fault.latency_sleep ();
                 false
             | Some kind ->
                 (* no mechanical simulation at this site: refuse the
                    request with a structured 503 rather than risk
                    answering wrongly *)
                 Metrics.incr m_faults;
                 ignore
                   (respond fd ~status:503
                      ~body:
                        (Protocol.error_body ~status:503 ~code:"fault-injected"
                           ~message:
                             (Printf.sprintf "injected %s at request-dispatch"
                                (Fault.kind_to_string kind)))
                      ());
                 true
           in
           if not injected then begin
             let status, body = route t req in
             if not (respond fd ~status ~close:!closing ~body ()) then
               closing := true
           end;
           ignore (Metrics.lap h_request t0)
     done
   with _ -> ());
  unregister_conn t fd;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Atomic.decr t.active

let deny_conn fd kind =
  Metrics.incr m_faults;
  (try
     Http.write_response fd ~status:503 ~close:true
       ~body:
         (Protocol.error_body ~status:503 ~code:"fault-injected"
            ~message:(Printf.sprintf "injected %s at accept" (Fault.kind_to_string kind)))
       ()
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let make_host () =
  {
    live = Atomic.make 0;
    mu = Mutex.create ();
    wake = Condition.create ();
    inbox = Queue.create ();
    finished = [];
    closing = false;
  }

(* a connection thread: serve, then hand itself to the host loop to be
   joined *)
let hosted_conn t h fd =
  handle_conn t fd;
  Mutex.lock h.mu;
  h.finished <- Thread.self () :: h.finished;
  Atomic.decr h.live;
  Condition.signal h.wake;
  Mutex.unlock h.mu

(* A host's loop. It returns once the host is closing and every
   connection it was given has finished and been joined, so joining a
   spawned host's domain leaves none of its threads behind. *)
let host_loop t h () =
  let exit = ref false in
  while not !exit do
    Mutex.lock h.mu;
    while
      Queue.is_empty h.inbox && h.finished = []
      && not (h.closing && Atomic.get h.live = 0)
    do
      Condition.wait h.wake h.mu
    done;
    let fds = List.of_seq (Queue.to_seq h.inbox) in
    Queue.clear h.inbox;
    let finished = h.finished in
    h.finished <- [];
    exit := h.closing && Atomic.get h.live = 0;
    Mutex.unlock h.mu;
    List.iter Thread.join finished;
    List.iter (fun fd -> ignore (Thread.create (hosted_conn t h) fd)) fds
  done

(* a new connection goes to the host with the fewest live ones *)
let spawn_conn t fd =
  Atomic.incr t.active;
  register_conn t fd;
  let pick = ref 0 in
  Array.iteri
    (fun i h -> if Atomic.get h.live < Atomic.get t.hosts.(!pick).live then pick := i)
    t.hosts;
  let h = t.hosts.(!pick) in
  Atomic.incr h.live;
  Mutex.lock h.mu;
  Queue.push fd h.inbox;
  Condition.signal h.wake;
  Mutex.unlock h.mu

let accept_loop t =
  let continue = ref true in
  while !continue && Atomic.get t.running do
    match Unix.accept t.sock with
    | fd, _ -> (
        match Fault.fire Accept with
        | None -> spawn_conn t fd
        | Some Latency ->
            Fault.latency_sleep ();
            spawn_conn t fd
        | Some kind -> deny_conn fd kind)
    | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) -> ()
    | exception Unix.Unix_error _ ->
        (* listening socket closed (stop) or unusable: exit the loop *)
        continue := false
  done

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
      | _ | (exception Not_found) ->
          invalid_arg (Printf.sprintf "opm_serve: cannot resolve host %S" host))

let start ?(config = default_config) () =
  (* a peer hanging up mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Metrics.set_enabled true;
  let sock = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt sock SO_REUSEADDR true;
  (try Unix.bind sock (ADDR_INET (resolve_host config.host, config.port))
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen sock config.backlog;
  let bound_port =
    match Unix.getsockname sock with
    | ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    {
      cfg = config;
      sock;
      bound_port;
      cache = Model_cache.create ~capacity:config.cache_capacity ();
      running = Atomic.make true;
      active = Atomic.make 0;
      request_count = Atomic.make 0;
      started = Unix.gettimeofday ();
      conns_mu = Mutex.create ();
      conns = [];
      accept_thread = None;
      hosts = Array.init (Opm_parallel.Pool.default_domains ()) (fun _ -> make_host ());
      joins = [];
      stopped = false;
    }
  in
  (* host 0 runs on this domain, the others on a domain each *)
  t.joins <-
    List.mapi
      (fun i h ->
        if i = 0 then
          let th = Thread.create (host_loop t h) () in
          fun () -> Thread.join th
        else
          let d = Domain.spawn (host_loop t h) in
          fun () -> Domain.join d)
      (Array.to_list t.hosts);
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let port t = t.bound_port
let cache t = t.cache
let requests t = Atomic.get t.request_count

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.running false;
    (* closing the listener pops the accept loop out of [accept] *)
    (try Unix.shutdown t.sock SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (* shut down live connections so blocked reads see EOF now instead
       of after the receive timeout *)
    Mutex.lock t.conns_mu;
    let live = t.conns in
    Mutex.unlock t.conns_mu;
    List.iter
      (fun fd -> try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      live;
    (* each host drains and joins its connection threads, then ends *)
    Array.iter
      (fun h ->
        Mutex.lock h.mu;
        h.closing <- true;
        Condition.signal h.wake;
        Mutex.unlock h.mu)
      t.hosts;
    List.iter (fun join -> join ()) t.joins
  end
