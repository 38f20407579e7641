(* opm_serve — serve OPM simulations over HTTP.

   Boots the Opm_serve daemon, prints the bound address (flushed, so
   scripts can wait for readiness by reading one line), and blocks
   until SIGINT/SIGTERM, then drains connections and exits 0. Exit
   codes follow opm_sim: 0 ok, 1 error, 2 usage. *)

open Cmdliner
module Fault = Opm_robust.Fault
module Server = Opm_serve.Server

exception Usage of string

let usage fmt = Printf.ksprintf (fun m -> raise (Usage m)) fmt

let host_arg =
  let doc = "Bind address." in
  Arg.(value & opt string Server.default_config.host & info [ "host" ] ~doc)

let port_arg =
  let doc = "Port to listen on; 0 picks an ephemeral port." in
  Arg.(value & opt int Server.default_config.port & info [ "p"; "port" ] ~doc)

let cache_arg =
  let doc = "Maximum resident compiled plants (LRU beyond)." in
  Arg.(
    value
    & opt int Server.default_config.cache_capacity
    & info [ "cache-capacity" ] ~doc)

let max_body_arg =
  let doc = "Request body size cap in bytes (413 beyond)." in
  Arg.(
    value & opt int Server.default_config.max_body & info [ "max-body" ] ~doc)

let max_steps_arg =
  let doc = "Per-request grid size cap (400 beyond)." in
  Arg.(
    value & opt int Server.default_config.max_steps & info [ "max-steps" ] ~doc)

let deadline_arg =
  let doc =
    "Default per-request wall-clock budget in seconds (a request's own \
     deadline_s overrides); breaches answer 503."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~doc)

let read_timeout_arg =
  let doc = "Idle-socket receive timeout in seconds (408 beyond)." in
  Arg.(
    value
    & opt float Server.default_config.read_timeout_s
    & info [ "read-timeout" ] ~doc)

let domains_arg =
  let doc =
    "Domains the daemon serves on, and the pool size (default: OPM_DOMAINS, \
     else the core count); 1 serves every connection on one domain."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~doc)

let fault_arg =
  let doc =
    "Arm a fault-injection plan seed:site[:kind]:nth (overrides \
     OPM_FAULT_PLAN)."
  in
  Arg.(value & opt (some string) None & info [ "fault" ] ~doc)

let validate ~port ~cache_capacity ~max_body ~max_steps ~deadline
    ~read_timeout ~domains ~fault =
  if port < 0 || port > 65535 then usage "--port must be in [0, 65535] (got %d)" port;
  if cache_capacity < 1 then
    usage "--cache-capacity must be >= 1 (got %d)" cache_capacity;
  if max_body < 1 then usage "--max-body must be >= 1 (got %d)" max_body;
  if max_steps < 1 then usage "--max-steps must be >= 1 (got %d)" max_steps;
  (match deadline with
  | Some d when d <= 0.0 -> usage "--deadline must be positive (got %g)" d
  | _ -> ());
  if read_timeout <= 0.0 then
    usage "--read-timeout must be positive (got %g)" read_timeout;
  (match domains with
  | Some d when d < 1 -> usage "--domains must be >= 1 (got %d)" d
  | _ -> ());
  match fault with
  | None -> (
      match Fault.arm_from_env () with
      | Ok _ -> ()
      | Error msg -> usage "OPM_FAULT_PLAN: %s" msg)
  | Some plan -> (
      match Fault.plan_of_string plan with
      | Ok p -> Fault.arm p
      | Error msg -> usage "--fault %s: %s" plan msg)

let run host port cache_capacity max_body max_steps deadline read_timeout
    domains fault =
  try
    validate ~port ~cache_capacity ~max_body ~max_steps ~deadline
      ~read_timeout ~domains ~fault;
    (match domains with
    | Some d -> Opm_parallel.Pool.set_default_domains d
    | None -> ());
    let config =
      {
        Server.default_config with
        host;
        port;
        cache_capacity;
        max_body;
        max_steps;
        deadline_s = deadline;
        read_timeout_s = read_timeout;
      }
    in
    let server = Server.start ~config () in
    Printf.printf "opm_serve: listening on %s:%d\n%!" host (Server.port server);
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not (Atomic.get stop_requested) do
      try Unix.sleepf 0.1 with Unix.Unix_error (EINTR, _, _) -> ()
    done;
    Printf.printf "opm_serve: shutting down after %d requests\n%!"
      (Server.requests server);
    Server.stop server;
    0
  with
  | Usage msg ->
      Printf.eprintf "opm_serve: %s\n" msg;
      2
  | Unix.Unix_error (e, fn, _) ->
      Printf.eprintf "opm_serve: %s: %s\n" fn (Unix.error_message e);
      1
  | Invalid_argument m | Failure m ->
      Printf.eprintf "opm_serve: %s\n" m;
      1

let cmd =
  let doc = "serve operational-matrix circuit simulations over HTTP" in
  let info = Cmd.info "opm_serve" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ host_arg $ port_arg $ cache_arg $ max_body_arg
      $ max_steps_arg $ deadline_arg $ read_timeout_arg $ domains_arg
      $ fault_arg)

let () = exit (Cmd.eval' cmd)
