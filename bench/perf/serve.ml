(* Serve workloads: a real opm_serve daemon in its own process, driven by
   closed-loop keep-alive clients (each sends its next request only when
   the previous answer has arrived). The daemon is never traced; the
   per-layer numbers come from [replica], which runs the daemon's /solve
   handler in this process on the same request bodies. *)

open Opm_basis
open Opm_core
module Json = Opm_obs.Json
module Protocol = Opm_serve.Protocol
module Model_cache = Opm_serve.Model_cache
module Mna = Opm_circuit.Mna

(* ---- the daemon ------------------------------------------------------ *)

type daemon = { pid : int; out : in_channel; port : int }

(* Spawn and wait for the ready line ("opm_serve: listening on H:P"). *)
let spawn () =
  let exe = Oneshot.built "bin/opm_serve.exe" in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--port"; "0"; "--cache-capacity"; "8" |]
      in_r out_w Unix.stderr
  in
  List.iter Unix.close [ in_r; in_w; out_w ];
  let out = Unix.in_channel_of_descr out_r in
  match
    let line = input_line out in
    let i = String.rindex line ':' in
    int_of_string (String.sub line (i + 1) (String.length line - i - 1))
  with
  | port -> { pid; out; port }
  | exception e ->
      Unix.kill pid Sys.sigterm;
      ignore (Unix.waitpid [] pid);
      close_in out;
      raise e

(* SIGTERM, drain its stdout, reap it. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try
     while true do
       ignore (input_line d.out)
     done
   with End_of_file | Sys_error _ -> ());
  close_in d.out;
  ignore (Unix.waitpid [] d.pid)

(* ---- a minimal keep-alive HTTP/1.1 client ---------------------------- *)

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt_float fd SO_RCVTIMEO 60.0;
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let find_sub s sub from =
  let n = String.length s and k = String.length sub in
  let rec matches i j = j = k || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + k > n then None else if matches i 0 then Some i else go (i + 1) in
  go from

(* status and body of one exchange; raises on a broken connection *)
let exchange fd ~meth ~path body =
  Oneshot.write_all fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: perf\r\nContent-Length: %d\r\n\r\n%s"
       meth path (String.length body) body);
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let more () =
    match Unix.read fd chunk 0 65536 with
    | 0 -> failwith "connection closed mid-response"
    | n -> Buffer.add_subbytes buf chunk 0 n
  in
  let rec head () =
    match find_sub (Buffer.contents buf) "\r\n\r\n" 0 with
    | Some i -> i + 4
    | None ->
        more ();
        head ()
  in
  let start = head () in
  let header = String.lowercase_ascii (Buffer.sub buf 0 start) in
  let status = Scanf.sscanf header "http/1.1 %d" Fun.id in
  let length =
    match find_sub header "content-length:" 0 with
    | Some i -> Scanf.sscanf (String.sub header (i + 15) (start - i - 15)) " %d" Fun.id
    | None -> failwith "response without Content-Length"
  in
  while Buffer.length buf < start + length do
    more ()
  done;
  (status, Buffer.sub buf start length)

(* The part of a /solve answer that is a function of the request alone:
   everything from the times array on. The fields before it (cache
   disposition, per-plant query counts) depend on the order in which the
   daemon happened to see requests. *)
let answer body =
  match find_sub body ",\"times\":" 0 with
  | Some i -> String.sub body i (String.length body - i)
  | None -> body

(* ---- the in-process replica of the /solve handler -------------------- *)

(* Same calls in the same order as Opm_serve.Server.handle_solve (no
   deadline configured), each wrapped in a span named after its layer. *)
let replica cache body =
  let span = Opm_obs.Trace.with_span in
  let parsed = span "serve.protocol.decode" (fun () -> Protocol.parse_request body) in
  let a = parsed.Protocol.analysis in
  let sys, sources =
    span "circuit.stamp" (fun () ->
        Mna.stamp ?outputs:(Protocol.probe_outputs a) parsed.Protocol.netlist)
  in
  let key =
    span "serve.protocol.fingerprint" (fun () ->
        Protocol.fingerprint ~sys ~t_end:a.t_end ~steps:a.steps ~window:a.window
          ~memory_len:a.memory_len ~basis:a.basis)
  in
  span "serve.model_cache" (fun () ->
      Model_cache.with_model cache ~key
        ~compile:(fun () ->
          Compiled_model.compile ~basis:a.basis ?window:a.window
            ?memory_len:a.memory_len
            ~grid:(Grid.uniform ~t_end:a.t_end ~m:a.steps)
            sys)
        (fun ~cached model ->
          let result =
            span "core.compiled_model.result" (fun () ->
                Compiled_model.solve model sources)
          in
          span "serve.protocol.encode" (fun () ->
              Protocol.ok_body ~plant:key ~cached
                ~factorisations:(Compiled_model.factorisations model)
                ~factor_reuse:(Compiled_model.factor_reuse model)
                ~queries:(Compiled_model.queries model)
                ~outputs:result.Sim_result.outputs)))

(* One replica operation, traced or not; returns the response body. *)
let replica_op ?dump (ledger : Ledger.t) cache ~trace body =
  if trace then begin
    let resp, values = Ledger.traced ?dump (fun () -> replica cache body) in
    ledger.traced_walls <- List.assoc "trace.wall.s" values :: ledger.traced_walls;
    Ledger.record ledger
      (("serve.protocol.request.bytes", float_of_int (String.length body))
      :: ("serve.protocol.response.bytes", float_of_int (String.length resp))
      :: values);
    resp
  end
  else begin
    let t0 = Unix.gettimeofday () in
    let resp = replica cache body in
    ledger.plain_walls <- (Unix.gettimeofday () -. t0) :: ledger.plain_walls;
    resp
  end

(* ---- one round: fresh daemon, warm-up, closed loop, /metrics ---------- *)

type request = { body : string; check : int -> string -> bool; keep : bool }

(* one slice of a round's closed loop *)
type segment = {
  latencies : float list;
  ok : int;
  window_s : float;
  kernel_s : float;  (* calibration kernel around the slice *)
}

type round = {
  setup_s : float;  (* spawn -> ready line -> warm-up answered *)
  setup_kernel_s : float;
  segments : segment list;
  failed : int;
  rss_mb : float;
  kept : (string * string) list;  (* (request, response) for later checks *)
  metrics : Json.t;
  failures : string list;
}

(* [next c k] is client c's k-th request. The closed loop runs in
   [segments] slices; the clients pause between slices while
   [calibrate] times the host-speed kernel, so each slice's times can be
   scaled by the speed of its own moment. *)
let round ~clients ~seconds ~segments ~calibrate ~warmup next =
  let setup_kernel_s = calibrate () in
  let t_spawn = Unix.gettimeofday () in
  let d = spawn () in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let fds = Array.init clients (fun _ -> connect d.port) in
  Fun.protect ~finally:(fun () -> Array.iter Unix.close fds) @@ fun () ->
  let w_status, w_body = exchange fds.(0) ~meth:"POST" ~path:"/solve" warmup.body in
  let setup_s = Unix.gettimeofday () -. t_spawn in
  let warm_ok = warmup.check w_status w_body in
  (* per-client state across slices; each thread writes only its own slot *)
  let k = Array.make clients 0 and failed = Array.make clients 0 in
  let kept = Array.make clients [] and failures = Array.make clients [] in
  let slice seconds =
    let lats = Array.make clients [] and ok = Array.make clients 0 in
    let t0 = Unix.gettimeofday () in
    let deadline = t0 +. seconds in
    let client c =
      try
        while Unix.gettimeofday () < deadline do
          let r = next c k.(c) in
          k.(c) <- k.(c) + 1;
          let t = Unix.gettimeofday () in
          let status, resp = exchange fds.(c) ~meth:"POST" ~path:"/solve" r.body in
          lats.(c) <- (Unix.gettimeofday () -. t) :: lats.(c);
          if r.check status resp then ok.(c) <- ok.(c) + 1
          else begin
            failed.(c) <- failed.(c) + 1;
            failures.(c) <-
              Printf.sprintf "status %d: %s" status
                (String.sub resp 0 (min 200 (String.length resp)))
              :: failures.(c)
          end;
          if r.keep then kept.(c) <- (r.body, resp) :: kept.(c)
        done
      with e ->
        failed.(c) <- failed.(c) + 1;
        failures.(c) <- Printexc.to_string e :: failures.(c)
    in
    Array.iter Thread.join (Array.init clients (Thread.create client));
    ( Array.fold_left ( @ ) [] lats,
      Array.fold_left ( + ) 0 ok,
      Unix.gettimeofday () -. t0 )
  in
  let before = ref (calibrate ()) in
  let segments =
    List.init segments (fun _ ->
        let latencies, ok, window_s = slice (seconds /. float_of_int segments) in
        let after = calibrate () in
        let kernel_s = (!before +. after) /. 2.0 in
        before := after;
        { latencies; ok; window_s; kernel_s })
  in
  let metrics =
    match exchange fds.(0) ~meth:"GET" ~path:"/metrics" "" with
    | 200, body -> ( try Json.of_string body with Json.Parse_error _ -> Json.Null)
    | _ -> Json.Null
  in
  {
    setup_s;
    setup_kernel_s;
    segments;
    failed = Array.fold_left ( + ) (if warm_ok then 0 else 1) failed;
    rss_mb = Oneshot.peak_rss_mb (string_of_int d.pid);
    kept = Array.fold_left ( @ ) [] kept;
    metrics;
    failures =
      (if warm_ok then [] else [ "warm-up request failed" ])
      @ Array.fold_left ( @ ) [] failures;
  }

let completed r = List.fold_left (fun n s -> n + s.ok) 0 r.segments

(* The daemon's own counters for one round, into the ledger. *)
let record_metrics (ledger : Ledger.t) metrics =
  let path keys =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some metrics) keys
    |> Fun.flip Option.bind Json.to_float_opt
    |> Option.value ~default:0.0
  in
  let add = Ledger.add ledger in
  add "cache.hits" (path [ "cache"; "hits" ]);
  add "cache.misses" (path [ "cache"; "misses" ]);
  add "daemon.serve.model_cache.evictions" (path [ "cache"; "evictions" ]);
  add "daemon.requests" (path [ "metrics"; "counters"; "serve.solve" ]);
  add "daemon.parallel.pool.jobs" (path [ "metrics"; "counters"; "pool.jobs" ]);
  add "daemon.parallel.pool.wait.s"
    (path [ "metrics"; "histograms"; "pool.job_wait_seconds"; "sum" ])
