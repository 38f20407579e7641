(* End-to-end tests of the opm_serve daemon.

   The daemon boots in-process on an ephemeral port and is driven by a
   hand-rolled HTTP client over Unix sockets (keep-alive aware, hard
   receive timeouts so a server hang fails the test instead of wedging
   CI).

   The core property is differential: every byte of every [/solve]
   response must decode to floats bit-identical to the same analysis
   run through [Opm.simulate_multi_term] in-process — the HTTP layer,
   the JSON printer/parser and the compiled-model cache may not
   perturb a single ulp. On top of that, the factor-once contract per
   plant: K concurrent clients sweeping the same circuit with
   different source amplitudes must pay exactly one factorisation
   (asserted through the per-plant stats in [/metrics]).

   Protocol fuzz (seeded, replayable via OPM_PROP_SEED like the parser
   fuzzers in test_circuit.ml) throws malformed, truncated and
   oversized bodies plus raw non-HTTP bytes at the daemon: every case
   must come back as a one-line structured 4xx, never a hang, a crash
   or a 200.

   The fault matrix extends bench resilience to the two server sites
   (accept, request-dispatch): under any injected kind the client sees
   a structured error or a correct answer — never a wrong one. *)

module Json = Opm_obs.Json
module Fault = Opm_robust.Fault
module Grid = Opm_basis.Grid
module Mna = Opm_circuit.Mna
module Parser = Opm_circuit.Parser
module Opm = Opm_core.Opm
module Compiled_model = Opm_core.Compiled_model
module Sim_result = Opm_core.Sim_result
module Waveform = Opm_signal.Waveform
module Model_cache = Opm_serve.Model_cache
module Protocol = Opm_serve.Protocol
module Server = Opm_serve.Server

(* ---------- tiny HTTP client ---------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let connect ?(timeout = 20.0) port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt_float fd SO_RCVTIMEO timeout;
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  fd

type response = { status : int; body : string }

(* Read one Content-Length-framed response off a keep-alive
   connection; raises on timeout (a hung server must fail loudly). *)
let read_response fd =
  let buf = Buffer.create 4096 in
  let tmp = Bytes.create 4096 in
  let read_more () =
    match Unix.read fd tmp 0 4096 with
    | 0 -> failwith "server closed connection mid-response"
    | n -> Buffer.add_subbytes buf tmp 0 n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
        failwith "client receive timeout (server hang?)"
  in
  let head_end () =
    let s = Buffer.contents buf in
    let rec find i =
      if i + 3 >= String.length s then None
      else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
      then Some (i + 4)
      else find (i + 1)
    in
    find 0
  in
  let rec wait_head () =
    match head_end () with
    | Some e -> e
    | None ->
        read_more ();
        wait_head ()
  in
  let body_start = wait_head () in
  let all = Buffer.contents buf in
  let head = String.sub all 0 body_start in
  let status =
    match String.split_on_char ' ' (List.hd (String.split_on_char '\r' head)) with
    | _ :: code :: _ -> int_of_string code
    | _ -> failwith ("malformed status line: " ^ head)
  in
  let content_length =
    let lower = String.lowercase_ascii head in
    let tag = "content-length:" in
    match
      List.find_opt
        (fun l -> String.length l >= String.length tag
                  && String.sub l 0 (String.length tag) = tag)
        (String.split_on_char '\n' lower)
    with
    | Some l ->
        int_of_string
          (String.trim
             (String.sub l (String.length tag) (String.length l - String.length tag)))
    | None -> failwith "response has no Content-Length"
  in
  while Buffer.length buf < body_start + content_length do
    read_more ()
  done;
  let body = String.sub (Buffer.contents buf) body_start content_length in
  { status; body }

let request_on fd ~meth ~path body =
  write_all fd
    (Printf.sprintf "%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s"
       meth path (String.length body) body);
  read_response fd

let request ?timeout ~port ~meth ~path body =
  let fd = connect ?timeout port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> request_on fd ~meth ~path body)

(* send raw bytes, read whatever comes back (possibly nothing) *)
let raw_exchange ?(timeout = 20.0) ~port bytes =
  let fd = connect ~timeout port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (try write_all fd bytes
       with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> ());
      (try Unix.shutdown fd SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      let buf = Buffer.create 1024 in
      let tmp = Bytes.create 4096 in
      let rec loop () =
        match Unix.read fd tmp 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf tmp 0 n;
            loop ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _)
          ->
            failwith "client receive timeout on raw exchange (server hang?)"
        | exception Unix.Unix_error (ECONNRESET, _, _) -> ()
      in
      loop ();
      Buffer.contents buf)

let with_server ?config f =
  (* SIGPIPE is ignored by Server.start, but arm it here too so a
     failing test that writes to a dead socket reports the assertion,
     not a signal death *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let config =
    match config with
    | Some c -> c
    | None -> { Server.default_config with port = 0 }
  in
  let s = Server.start ~config () in
  Fun.protect ~finally:(fun () -> Server.stop s) (fun () -> f s)

(* ---------- request fixtures ---------- *)

let rc_netlist amp =
  Printf.sprintf "V1 in 0 step(%g)\nR1 in out 1k\nC1 out 0 1u\n.end" amp

let rlc_netlist amp =
  Printf.sprintf "V1 in 0 sin(0 %g 300)\nR1 in a 20\nL1 a out 10m\nC1 out 0 10u\n"
    amp

let cpe_netlist amp =
  Printf.sprintf "I1 0 a %g\nR1 a 0 1k\nP1 a 0 q=1u alpha=0.5\n" amp

let solve_body ?(t_end = 0.005) ?(steps = 48) ?window ?probes netlist =
  let field k v = Printf.sprintf ",%S:%s" k v in
  Printf.sprintf
    "{\"netlist\":%s,\"analysis\":{\"t_end\":%g,\"steps\":%d%s%s}}"
    (Json.to_string (Json.String netlist))
    t_end steps
    (match window with None -> "" | Some w -> field "window" (string_of_int w))
    (match probes with
    | None -> ""
    | Some ps ->
        field "probes"
          (Json.to_string (Json.List (List.map (fun p -> Json.String p) ps))))

(* the reference: same netlist, same analysis, straight through the
   library *)
let expected_outputs ?window ?probes ~t_end ~steps netlist_text =
  let net = Parser.parse_string netlist_text in
  let outputs = Option.map (List.map (fun p -> Mna.Node_voltage p)) probes in
  let sys, sources = Mna.stamp ?outputs net in
  let grid = Grid.uniform ~t_end ~m:steps in
  let r = Opm.simulate_multi_term ?window ~grid sys sources in
  r.Sim_result.outputs

let floats_of_json j =
  match Json.to_list_opt j with
  | Some l ->
      Array.of_list
        (List.map
           (fun x ->
             match Json.to_float_opt x with
             | Some f -> f
             | None -> Alcotest.fail "non-numeric sample in response")
           l)
  | None -> Alcotest.fail "expected a JSON array of floats"

let check_bits what (expected : float array) (got : float array) =
  Alcotest.(check int) (what ^ " length") (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float got.(i) then
        Alcotest.failf "%s[%d]: expected %h, got %h (not bit-identical)" what
          i e got.(i))
    expected

(* assert a solve response matches the in-process reference bit for bit *)
let check_differential ?window ?probes ~t_end ~steps netlist_text resp =
  Alcotest.(check int) "status" 200 resp.status;
  let doc = Json.of_string resp.body in
  let expected = expected_outputs ?window ?probes ~t_end ~steps netlist_text in
  let member k =
    match Json.member k doc with
    | Some v -> v
    | None -> Alcotest.failf "response missing %S" k
  in
  check_bits "times" expected.Waveform.times (floats_of_json (member "times"));
  let channels =
    match Json.to_list_opt (member "outputs") with
    | Some l -> Array.of_list (List.map floats_of_json l)
    | None -> Alcotest.fail "outputs is not a list"
  in
  Alcotest.(check int) "channel count"
    (Array.length expected.Waveform.channels)
    (Array.length channels);
  Array.iteri
    (fun c e -> check_bits (Printf.sprintf "outputs[%d]" c) e channels.(c))
    expected.Waveform.channels

let error_of_body body =
  let doc = Json.of_string body in
  match Json.member "error" doc with
  | Some err ->
      let get k =
        match Json.member k err with
        | Some v -> v
        | None -> Alcotest.failf "error object missing %S in %s" k body
      in
      ( Option.get (Json.to_int_opt (get "status")),
        Option.get (Json.to_string_opt (get "code")),
        Option.get (Json.to_string_opt (get "message")) )
  | None -> Alcotest.failf "expected a structured error body, got %s" body

let check_structured_error resp =
  Alcotest.(check bool) "error status >= 400" true (resp.status >= 400);
  if String.contains resp.body '\n' then
    Alcotest.failf "error body is not one line: %s" resp.body;
  let status, _code, _msg = error_of_body resp.body in
  Alcotest.(check int) "body status matches HTTP status" resp.status status

(* ---------- basic endpoints ---------- *)

let test_health_and_routing () =
  with_server (fun s ->
      let port = Server.port s in
      let health = request ~port ~meth:"GET" ~path:"/health" "" in
      Alcotest.(check int) "health status" 200 health.status;
      let doc = Json.of_string health.body in
      Alcotest.(check (option string))
        "health ok"
        (Some "ok")
        (Option.bind (Json.member "status" doc) Json.to_string_opt);
      check_structured_error (request ~port ~meth:"GET" ~path:"/nope" "");
      let m = request ~port ~meth:"PUT" ~path:"/solve" "" in
      Alcotest.(check int) "405 on PUT /solve" 405 m.status;
      check_structured_error m)

let test_solve_differential_single () =
  with_server (fun s ->
      let port = Server.port s in
      let netlist = rc_netlist 1.0 in
      let body = solve_body ~probes:[ "out" ] netlist in
      let resp = request ~port ~meth:"POST" ~path:"/solve" body in
      check_differential ~probes:[ "out" ] ~t_end:0.005 ~steps:48 netlist resp;
      (* same plant again: served from cache, still bit-identical *)
      let resp2 = request ~port ~meth:"POST" ~path:"/solve" body in
      check_differential ~probes:[ "out" ] ~t_end:0.005 ~steps:48 netlist resp2;
      let doc = Json.of_string resp2.body in
      Alcotest.(check (option bool))
        "second hit cached" (Some true)
        (Option.bind (Json.member "cached" doc) (function
          | Json.Bool b -> Some b
          | _ -> None));
      Alcotest.(check (option int))
        "exactly one factorisation" (Some 1)
        (Option.bind (Json.member "factorisations" doc) Json.to_int_opt))

let test_solve_windowed_differential () =
  with_server (fun s ->
      let port = Server.port s in
      let netlist = rlc_netlist 2.5 in
      let body = solve_body ~steps:64 ~window:16 ~probes:[ "out" ] netlist in
      let resp = request ~port ~meth:"POST" ~path:"/solve" body in
      check_differential ~window:16 ~probes:[ "out" ] ~t_end:0.005 ~steps:64
        netlist resp)

let test_solve_fractional_differential () =
  with_server (fun s ->
      let port = Server.port s in
      let netlist = cpe_netlist 0.001 in
      let body = solve_body ~steps:40 ~probes:[ "a" ] netlist in
      let resp = request ~port ~meth:"POST" ~path:"/solve" body in
      check_differential ~probes:[ "a" ] ~t_end:0.005 ~steps:40 netlist resp)

(* ---------- the serving contract: K concurrent sweeping clients ----------

   K >= 8 clients, three distinct plants between them, each client
   sweeping source amplitudes over one keep-alive connection. Every
   response must be bit-identical to the in-process reference, and
   /metrics must afterwards report exactly one factorisation per
   distinct plant — N clients sweeping one circuit pay one
   factorisation. *)

let test_concurrent_sweep_factor_once () =
  with_server (fun s ->
      let port = Server.port s in
      let plants =
        [|
          (rc_netlist, [ "out" ]);
          (rlc_netlist, [ "out" ]);
          (cpe_netlist, [ "a" ]);
        |]
      in
      let k_clients = 9 and sweeps = 4 in
      let failures = Array.make k_clients None in
      let client c =
        try
          let make_net, probes = plants.(c mod Array.length plants) in
          let fd = connect port in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              for i = 0 to sweeps - 1 do
                (* amplitudes unique per client so the sweep really
                   varies the sources while sharing the plant *)
                let amp = 0.5 +. (0.25 *. float_of_int ((c * sweeps) + i)) in
                let netlist = make_net amp in
                let body = solve_body ~steps:48 ~probes netlist in
                let resp = request_on fd ~meth:"POST" ~path:"/solve" body in
                check_differential ~probes ~t_end:0.005 ~steps:48 netlist resp
              done)
        with e -> failures.(c) <- Some (Printexc.to_string e)
      in
      let threads =
        Array.init k_clients (fun c -> Thread.create client c)
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun c -> function
          | Some msg -> Alcotest.failf "client %d failed: %s" c msg
          | None -> ())
        failures;
      (* per-plant factor-once, via the public metrics endpoint *)
      let m = request ~port ~meth:"GET" ~path:"/metrics" "" in
      Alcotest.(check int) "metrics status" 200 m.status;
      let doc = Json.of_string m.body in
      let plants_json =
        match
          Option.bind
            (Json.member "cache" doc)
            (fun c -> Option.bind (Json.member "plants" c) Json.to_list_opt)
        with
        | Some l -> l
        | None -> Alcotest.fail "metrics missing cache.plants"
      in
      Alcotest.(check int) "three distinct plants" 3 (List.length plants_json);
      List.iter
        (fun p ->
          let fact =
            Option.bind (Json.member "factorisations" p) Json.to_int_opt
          in
          Alcotest.(check (option int))
            "exactly one factorisation per plant" (Some 1) fact)
        plants_json;
      let total_queries =
        List.fold_left
          (fun acc p ->
            acc
            + Option.value ~default:0
                (Option.bind (Json.member "queries" p) Json.to_int_opt))
          0 plants_json
      in
      Alcotest.(check int)
        "every sweep request became a query" (k_clients * sweeps)
        total_queries)

(* Start and stop 130 servers in one process, each serving on two
   domains: that is more than OCaml's 128-domain limit, so a host
   domain that [stop] failed to join would make a later
   [Domain.spawn] fail. Two live connections per server put one on
   each host. *)
let test_start_stop_many_servers () =
  let before = Opm_parallel.Pool.default_domains () in
  Opm_parallel.Pool.set_default_domains 2;
  Fun.protect ~finally:(fun () -> Opm_parallel.Pool.set_default_domains before)
  @@ fun () ->
  for i = 1 to 130 do
    with_server (fun s ->
        let fds = List.init 2 (fun _ -> connect (Server.port s)) in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
          (fun () ->
            List.iter
              (fun fd ->
                let r = request_on fd ~meth:"GET" ~path:"/health" "" in
                if r.status <> 200 then
                  Alcotest.failf "server %d answered /health with %d" i r.status)
              fds))
  done

(* ---------- protocol fuzz ---------- *)

let fuzz_base_seed =
  match Sys.getenv_opt "OPM_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 20260806)
  | None -> 20260806

let fuzz_prop ~n f () =
  for k = 0 to n - 1 do
    let seed = fuzz_base_seed + (1013904223 * k) in
    let st = Random.State.make [| 0x5e7e; seed |] in
    try f st
    with e ->
      Alcotest.failf "case %d failed — replay with OPM_PROP_SEED=%d — %s" k
        seed (Printexc.to_string e)
  done

let valid_body () = solve_body ~probes:[ "out" ] (rc_netlist 1.0)

(* malformed /solve bodies: truncations, bit flips, wrong shapes,
   unknown fields, bad netlists, out-of-range analyses *)
let random_bad_body st =
  let v = valid_body () in
  match Random.State.int st 10 with
  | 0 -> String.sub v 0 (Random.State.int st (String.length v))
  | 1 ->
      let b = Bytes.of_string v in
      let i = Random.State.int st (Bytes.length b) in
      Bytes.set b i (Char.chr (Random.State.int st 256));
      Bytes.to_string b
  | 2 -> "[1,2,3]"
  | 3 -> "{\"netlist\": 42, \"analysis\": {\"t_end\": 1, \"steps\": 8}}"
  | 4 -> solve_body ~probes:[ "out" ] "X1 bogus element line\n"
  | 5 -> "{\"netlist\":\"R1 a 0 1k\",\"analysis\":{\"t_end\":-1,\"steps\":8}}"
  | 6 -> "{\"netlist\":\"R1 a 0 1k\",\"analysis\":{\"t_end\":1,\"steps\":0}}"
  | 7 ->
      "{\"netlist\":\"R1 a 0 1k\",\"analysis\":{\"t_end\":1,\"steps\":8,\"surprise\":true}}"
  | 8 ->
      "{\"netlist\":\"R1 a 0 1k\",\"analysis\":{\"t_end\":1,\"steps\":8},\"extra\":{}}"
  | _ ->
      String.init
        (1 + Random.State.int st 64)
        (fun _ -> Char.chr (32 + Random.State.int st 95))

let test_fuzz_malformed_bodies () =
  with_server (fun s ->
      let port = Server.port s in
      fuzz_prop ~n:60
        (fun st ->
          let body = random_bad_body st in
          let resp = request ~port ~meth:"POST" ~path:"/solve" body in
          if resp.status = 200 then
            (* a mutation may accidentally stay a valid request — then
               it must be a *correct* 200, which the differential tests
               cover; here we only require it to parse as the success
               schema *)
            (match Json.member "plant" (Json.of_string resp.body) with
            | Some _ -> ()
            | None -> Alcotest.failf "200 without success schema: %s" resp.body)
          else begin
            if resp.status >= 500 then
              Alcotest.failf "malformed body answered %d (%s)" resp.status
                resp.body;
            check_structured_error resp
          end)
        ();
      (* the daemon must still be fully alive after the barrage *)
      let netlist = rc_netlist 1.0 in
      let resp =
        request ~port ~meth:"POST" ~path:"/solve"
          (solve_body ~probes:[ "out" ] netlist)
      in
      check_differential ~probes:[ "out" ] ~t_end:0.005 ~steps:48 netlist resp)

(* raw non-HTTP bytes and framing violations on the socket *)
let random_raw_bytes st =
  match Random.State.int st 6 with
  | 0 ->
      String.init
        (1 + Random.State.int st 128)
        (fun _ -> Char.chr (Random.State.int st 256))
  | 1 -> "GET\r\n\r\n"
  | 2 -> "POST /solve HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
  | 3 -> "POST /solve HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
  | 4 -> "POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
  | _ -> "no colon header\r\nstill no colon\r\n\r\n"

let test_fuzz_raw_framing () =
  with_server (fun s ->
      let port = Server.port s in
      fuzz_prop ~n:40
        (fun st ->
          let raw = random_raw_bytes st in
          let reply = raw_exchange ~port raw in
          (* any reply must be an HTTP error response with a one-line
             structured JSON body; no reply (server just closed) is
             also acceptable — but never a 200 and never a hang (the
             client timeout turns a hang into a failure) *)
          if reply <> "" then begin
            if String.length reply < 12 || String.sub reply 0 5 <> "HTTP/" then
              Alcotest.failf "non-HTTP reply to raw bytes: %S" reply;
            let status =
              match String.split_on_char ' ' reply with
              | _ :: code :: _ -> ( try int_of_string code with _ -> -1)
              | _ -> -1
            in
            if status < 400 then
              Alcotest.failf "raw garbage answered status %d" status
          end)
        ();
      let h = request ~port ~meth:"GET" ~path:"/health" "" in
      Alcotest.(check int) "alive after framing fuzz" 200 h.status)

let test_oversized_body_413 () =
  let config =
    { Server.default_config with port = 0; max_body = 4096 }
  in
  with_server ~config (fun s ->
      let port = Server.port s in
      let big = String.make 8192 'x' in
      let resp = request ~port ~meth:"POST" ~path:"/solve" big in
      Alcotest.(check int) "413 on oversized body" 413 resp.status;
      check_structured_error resp)

let test_steps_cap_400 () =
  let config = { Server.default_config with port = 0; max_steps = 128 } in
  with_server ~config (fun s ->
      let port = Server.port s in
      let resp =
        request ~port ~meth:"POST" ~path:"/solve"
          (solve_body ~steps:4096 ~probes:[ "out" ] (rc_netlist 1.0))
      in
      Alcotest.(check int) "400 beyond max-steps" 400 resp.status;
      check_structured_error resp)

let test_singular_pencil_422 () =
  with_server (fun s ->
      let port = Server.port s in
      (* two ideal voltage sources in parallel: structurally singular *)
      let netlist = "V1 a 0 step(1)\nV2 a 0 step(2)\nR1 a 0 1k\n" in
      let resp =
        request ~port ~meth:"POST" ~path:"/solve" (solve_body netlist)
      in
      Alcotest.(check int) "422 on singular pencil" 422 resp.status;
      check_structured_error resp)

let test_deadline_503 () =
  with_server (fun s ->
      let port = Server.port s in
      (* a deadline so small the first budget check trips it *)
      let body =
        Printf.sprintf
          "{\"netlist\":%s,\"analysis\":{\"t_end\":0.005,\"steps\":2048,\"window\":64,\"deadline_s\":1e-9}}"
          (Json.to_string (Json.String (rc_netlist 1.0)))
      in
      let resp = request ~port ~meth:"POST" ~path:"/solve" body in
      Alcotest.(check int) "503 on deadline" 503 resp.status;
      let status, code, _ = error_of_body resp.body in
      Alcotest.(check int) "body status" 503 status;
      Alcotest.(check string) "code" "deadline" code)

(* ---------- fault matrix: accept and request-dispatch sites ----------

   Under any injected fault the client sees a structured error or a
   correct answer, never a wrong one. Latency injections must still
   produce the correct answer; other kinds produce a structured 503 at
   the injected request and correct answers afterwards. *)

let test_server_fault_matrix () =
  let netlist = rc_netlist 1.0 in
  let body = solve_body ~probes:[ "out" ] netlist in
  List.iter
    (fun site ->
      List.iter
        (fun kind ->
          Fault.arm { Fault.seed = 20260808; site; kind; nth = 1 };
          Fun.protect ~finally:Fault.disarm (fun () ->
              with_server (fun s ->
                  let port = Server.port s in
                  let label =
                    Printf.sprintf "%s/%s" (Fault.site_to_string site)
                      (Fault.kind_to_string kind)
                  in
                  (* first exchange eats the injection (nth = 1) *)
                  (try
                     let resp =
                       request ~port ~meth:"POST" ~path:"/solve" body
                     in
                     if resp.status = 200 then
                       check_differential ~probes:[ "out" ] ~t_end:0.005
                         ~steps:48 netlist resp
                     else begin
                       check_structured_error resp;
                       let _, code, _ = error_of_body resp.body in
                       Alcotest.(check string)
                         (label ^ " error code") "fault-injected" code
                     end
                   with Failure msg ->
                     (* an accept-site denial may close the socket
                        before the client reads a full response — a
                        dropped connection is a visible failure, not a
                        wrong answer; but a *timeout* is a hang *)
                     if msg = "client receive timeout (server hang?)" then
                       Alcotest.failf "%s: server hung" label);
                  (* after the one-shot plan fired, service is correct *)
                  let resp2 = request ~port ~meth:"POST" ~path:"/solve" body in
                  check_differential ~probes:[ "out" ] ~t_end:0.005 ~steps:48
                    netlist resp2;
                  Alcotest.(check bool)
                    (label ^ " injected exactly once") true
                    (Fault.injected_total () <= 1))))
        Fault.all_kinds)
    [ Fault.Accept; Fault.Request_dispatch ]

(* ---------- per-model factor statistics (regression) ----------

   Before this PR the only factor-reuse statistic was the
   process-global [compiled.factor_reuse] metrics counter, useless for
   per-plant reporting: two live models must account their own hits
   and misses independently. *)

let test_per_model_factor_stats () =
  let grid = Grid.uniform ~t_end:0.005 ~m:32 in
  let stamp text =
    let sys, sources = Mna.stamp (Parser.parse_string text) in
    (Compiled_model.compile ~grid sys, sources)
  in
  let m1, src1 = stamp "V1 in 0 step(1)\nR1 in out 1k\nC1 out 0 1u\n" in
  let m2, src2 = stamp "V1 in 0 step(1)\nR1 in a 20\nL1 a out 10m\nC1 out 0 10u\n" in
  for _ = 1 to 3 do
    ignore (Compiled_model.solve m1 src1)
  done;
  ignore (Compiled_model.solve m2 src2);
  Alcotest.(check int) "m1 factorised once" 1 (Compiled_model.factorisations m1);
  Alcotest.(check int) "m2 factorised once" 1 (Compiled_model.factorisations m2);
  Alcotest.(check int) "m1 reuse counts its own queries" 3
    (Compiled_model.factor_reuse m1);
  Alcotest.(check int) "m2 reuse independent of m1" 1
    (Compiled_model.factor_reuse m2)

(* ---------- model cache unit behaviour ---------- *)

let dummy_model () =
  let sys, _ = Mna.stamp (Parser.parse_string "R1 a 0 1k\nC1 a 0 1u\nI1 0 a step(1)\n") in
  Compiled_model.compile ~grid:(Grid.uniform ~t_end:1.0 ~m:8) sys

let test_cache_eviction_bound () =
  let c = Model_cache.create ~capacity:2 () in
  for i = 1 to 5 do
    Model_cache.with_model c
      ~key:(string_of_int i)
      ~compile:dummy_model
      (fun ~cached:_ _ -> ())
  done;
  Alcotest.(check int) "bounded at capacity" 2 (Model_cache.length c);
  Alcotest.(check int) "evictions counted" 3 (Model_cache.evictions c);
  (* LRU: key 5 and 4 resident, 5 hits *)
  Model_cache.with_model c ~key:"5" ~compile:dummy_model (fun ~cached _ ->
      Alcotest.(check bool) "most recent key resident" true cached)

let test_cache_compile_failure_retries () =
  let c = Model_cache.create ~capacity:4 () in
  let attempts = ref 0 in
  (try
     Model_cache.with_model c ~key:"k"
       ~compile:(fun () ->
         incr attempts;
         failwith "boom")
       (fun ~cached:_ _ -> ())
   with Failure _ -> ());
  Alcotest.(check int) "failed placeholder evicted" 0 (Model_cache.length c);
  Model_cache.with_model c ~key:"k"
    ~compile:(fun () ->
      incr attempts;
      dummy_model ())
    (fun ~cached _ ->
      Alcotest.(check bool) "retry recompiles" false cached);
  Alcotest.(check int) "compile ran twice" 2 !attempts

let test_fingerprint_source_invariance () =
  let fp text =
    let sys, _ = Mna.stamp (Parser.parse_string text) in
    Protocol.fingerprint ~sys ~t_end:1e-3 ~steps:64 ~window:None
      ~memory_len:None ~basis:`Bpf
  in
  let a = fp "V1 in 0 step(1)\nR1 in out 1k\nC1 out 0 1u\n" in
  let b = fp "* a comment\nV1 in 0 step(7)\nR1 in out 1k\nC1 out 0 1u\n.end" in
  let c = fp "V1 in 0 step(1)\nR1 in out 2k\nC1 out 0 1u\n" in
  Alcotest.(check string) "source-only change shares the plant" a b;
  Alcotest.(check bool) "element change is a new plant" true (a <> c);
  let sys, _ =
    Mna.stamp (Parser.parse_string "V1 in 0 step(1)\nR1 in out 1k\nC1 out 0 1u\n")
  in
  let w =
    Protocol.fingerprint ~sys ~t_end:1e-3 ~steps:64 ~window:(Some 16)
      ~memory_len:None ~basis:`Bpf
  in
  Alcotest.(check bool) "window config is part of the key" true (a <> w);
  let sp =
    Protocol.fingerprint ~sys ~t_end:1e-3 ~steps:64 ~window:None
      ~memory_len:None ~basis:`Spectral
  in
  Alcotest.(check bool) "basis is part of the key" true (a <> sp)

let () =
  Alcotest.run "serve"
    [
      ( "endpoints",
        [
          Alcotest.test_case "health and routing" `Quick
            test_health_and_routing;
          Alcotest.test_case "solve differential (dense RC)" `Quick
            test_solve_differential_single;
          Alcotest.test_case "solve differential (windowed RLC)" `Quick
            test_solve_windowed_differential;
          Alcotest.test_case "solve differential (fractional CPE)" `Quick
            test_solve_fractional_differential;
        ] );
      ( "serving contract",
        [
          Alcotest.test_case "concurrent sweep, one factorisation per plant"
            `Quick test_concurrent_sweep_factor_once;
          Alcotest.test_case "130 servers start and stop" `Quick
            test_start_stop_many_servers;
        ] );
      ( "protocol fuzz",
        [
          Alcotest.test_case "malformed bodies are structured 4xx" `Quick
            test_fuzz_malformed_bodies;
          Alcotest.test_case "raw framing garbage" `Quick test_fuzz_raw_framing;
          Alcotest.test_case "oversized body is 413" `Quick
            test_oversized_body_413;
          Alcotest.test_case "steps cap is 400" `Quick test_steps_cap_400;
          Alcotest.test_case "singular pencil is 422" `Quick
            test_singular_pencil_422;
          Alcotest.test_case "deadline breach is 503" `Quick test_deadline_503;
        ] );
      ( "fault matrix",
        [
          Alcotest.test_case "accept/request-dispatch sites" `Quick
            test_server_fault_matrix;
        ] );
      ( "factor stats",
        [
          Alcotest.test_case "per-model counters are independent" `Quick
            test_per_model_factor_stats;
        ] );
      ( "model cache",
        [
          Alcotest.test_case "LRU eviction bound" `Quick
            test_cache_eviction_bound;
          Alcotest.test_case "compile failure retries" `Quick
            test_cache_compile_failure_retries;
          Alcotest.test_case "fingerprint keying" `Quick
            test_fingerprint_source_invariance;
        ] );
    ]
