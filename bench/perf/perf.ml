(* perf.exe — the repository benchmark. See README.md.

     perf.exe --workload W --seed S --seconds T --trace 0|1
         one workload; the last stdout line is the result object
     perf.exe run [--seed S] [--seconds T] [--smoke] [--trace] [--out F]
         all four workloads, interleaved round-robin; writes a result doc
     perf.exe compare BASE.json NEW.json [--bench BENCHMARK.json]
     perf.exe check RESULT.json BENCHMARK.json
     perf.exe child W [--smoke] [--trace] [--trace-out P]
         one one-shot sample (internal; netlist on stdin) *)

module Json = Opm_obs.Json

let workloads =
  [ "oneshot-frac-long"; "oneshot-grid-na"; "serve-hot-sweep"; "serve-cold-spectral" ]

let is_serve name = String.starts_with ~prefix:"serve-" name

(* measured seconds per workload and run, BENCHMARK.json's run_seconds *)
let default_seconds = 22.0

(* ---- per-workload accumulators --------------------------------------- *)

(* Times are kept scaled to the reference host speed (see Calib), raw
   latencies alongside for information. *)
type acc = {
  name : string;
  mutable lat : float list;  (* s per operation *)
  mutable raw : float list;  (* s per operation, unscaled *)
  mutable setup : float list;  (* s *)
  mutable rss : float list;  (* MB *)
  mutable accuracy : float list;  (* dB *)
  mutable slices : (int * float) list;  (* (operations, scaled seconds) per record *)
  mutable calib : float list;  (* calibration kernel, s *)
  mutable ops : int;
  mutable busy : float;  (* measured seconds, unscaled: ends the run *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  ledger : Ledger.t;
}

let new_acc name =
  {
    name;
    lat = [];
    raw = [];
    setup = [];
    rss = [];
    accuracy = [];
    slices = [];
    calib = [];
    ops = 0;
    busy = 0.0;
    attempted = 0;
    failed = 0;
    failures = [];
    ledger = Ledger.create ();
  }

let fail acc msg =
  acc.failed <- acc.failed + 1;
  if List.length acc.failures < 5 then acc.failures <- msg :: acc.failures

(* [ops] operations with latencies [lats] over [window] seconds, timed
   while the calibration kernel took [kernel] seconds *)
let record_ops acc ~kernel ~lats ~ops ~window =
  let f = Calib.reference /. kernel in
  acc.ops <- acc.ops + ops;
  acc.busy <- acc.busy +. window;
  acc.slices <- (ops, window *. f) :: acc.slices;
  acc.raw <- lats @ acc.raw;
  acc.lat <- List.map (fun l -> l *. f) lats @ acc.lat;
  acc.calib <- kernel :: acc.calib

(* one start of the program under test *)
let record_start acc ~kernel ~setup ~rss =
  acc.setup <- (setup *. Calib.reference /. kernel) :: acc.setup;
  acc.rss <- rss :: acc.rss

(* ---- one-shot workloads ---------------------------------------------- *)

let oneshot ~smoke ~seed ~trace ~trace_out name =
  let acc = new_acc name in
  let netlist = Inputs.oneshot_netlist ~smoke seed name in
  let reference = Inputs.oneshot_reference ~smoke name netlist in
  let min_accuracy = if name = "oneshot-frac-long" then 120.0 else 40.0 in
  (* the CLI must print exactly the bytes the benchmark times *)
  let expected =
    if name <> "oneshot-frac-long" then None
    else
      match Oneshot.opm_sim_csv ~smoke name netlist with
      | csv, _, Unix.WEXITED 0 -> Some csv
      | _, err, _ ->
          acc.attempted <- acc.attempted + 1;
          fail acc ("opm_sim failed: " ^ err);
          None
  in
  let parity = ref 0 in
  ignore (Calib.kernel () : float);
  let step () =
    (* traced runs alternate traced and untraced children so that the
       tracing overhead is measured on the same samples *)
    let traced = trace && !parity mod 2 = 0 in
    incr parity;
    acc.attempted <- acc.attempted + 1;
    let kernel = Calib.kernel () in
    match
      Oneshot.run_child ~smoke ~trace:traced
        ?trace_out:(if traced then trace_out else None)
        name netlist
    with
    | Error msg -> fail acc msg
    | Ok s -> (
        match Inputs.waveform_of_csv s.csv with
        | exception e -> fail acc ("unreadable CSV: " ^ Printexc.to_string e)
        | w ->
            let a = Inputs.accuracy_db name ~reference w in
            let finite =
              Array.for_all (Array.for_all Float.is_finite) w.Opm_signal.Waveform.channels
            in
            if not finite then fail acc "non-finite output"
            else if not (a >= min_accuracy) then
              fail acc (Printf.sprintf "accuracy %.1f dB below %.0f dB" a min_accuracy)
            else if Option.fold ~none:false ~some:(( <> ) s.csv) expected then
              fail acc "CSV differs from opm_sim's output"
            else begin
              record_start acc ~kernel ~setup:(s.ready -. s.spawned) ~rss:s.rss_mb;
              record_ops acc ~kernel ~lats:[ s.wall ] ~ops:1
                ~window:(s.exited -. s.spawned);
              acc.accuracy <- a :: acc.accuracy;
              let l = acc.ledger in
              if traced then begin
                Ledger.record l s.layers;
                l.traced_walls <- s.wall :: l.traced_walls
              end
              else l.plain_walls <- s.wall :: l.plain_walls
            end)
  in
  (acc, step)

(* ---- serve workloads ------------------------------------------------- *)

let serve ~smoke ~seed ~trace ~seconds ~trace_out name =
  let acc = new_acc name in
  let rounds = if smoke then 3 else 10 in
  let cache = Opm_serve.Model_cache.create ~capacity:8 () in
  let dumped = ref false in
  let replica ~trace body =
    let dump = if trace && not !dumped then (dumped := true; trace_out) else None in
    Serve.replica_op ?dump acc.ledger cache ~trace body
  in
  let ok_answer expected status resp = status = 200 && Serve.answer resp = expected in
  (* [replica_work] runs after every round: the in-process checks and,
     when tracing, the per-layer operations *)
  let warmup, next, replica_work =
    if name = "serve-hot-sweep" then begin
      let bodies = Inputs.hot_bodies ~smoke seed in
      (* in-process answers for the bit-identity gate; also warms the
         replica's cache as the daemon's warm-up does *)
      let expected = Array.map (fun b -> Serve.answer (Serve.replica cache b)) bodies in
      acc.accuracy <- [ Inputs.serve_accuracy_db bodies.(0) ];
      let req i =
        let i = i mod Array.length bodies in
        { Serve.body = bodies.(i); check = ok_answer expected.(i); keep = false }
      in
      let work r =
        if trace then
          for k = 0 to (Serve.completed r / 4) - 1 do
            let i = k mod Array.length bodies in
            let resp = replica ~trace:(k mod 2 = 0) bodies.(i) in
            if Serve.answer resp <> expected.(i) then fail acc "replica answer differs"
          done
      in
      (req 0, (fun c k -> req ((7 * c) + k)), work)
    end
    else begin
      let body = Inputs.cold_body ~smoke seed in
      acc.accuracy <- [ Inputs.serve_accuracy_db (body 0) ];
      let plant = Atomic.make 1 in
      let finite status resp =
        status = 200
        && Serve.find_sub resp "\"outputs\":[[" 0 <> None
        && Serve.find_sub (Serve.answer resp) "null" 0 = None
      in
      let req keep =
        { Serve.body = body (Atomic.fetch_and_add plant 1); check = finite; keep }
      in
      (* every tenth answer against an in-process spectral compile+solve *)
      let work (r : Serve.round) =
        List.iteri
          (fun k (b, resp) ->
            let mine = replica ~trace:(trace && k mod 2 = 0) b in
            if Serve.answer mine <> Serve.answer resp then
              fail acc "daemon answer differs from in-process spectral solve")
          r.kept
      in
      (req false, (fun _ k -> req (k mod 10 = 9)), work)
    end
  in
  ignore (Calib.kernel () : float);
  let step () =
    match
      Serve.round ~clients:2 ~seconds:(seconds /. float_of_int rounds) ~segments:5
        ~calibrate:Calib.kernel ~warmup next
    with
    | exception e ->
        acc.attempted <- acc.attempted + 1;
        fail acc ("round failed: " ^ Printexc.to_string e)
    | r ->
        acc.attempted <- acc.attempted + Serve.completed r + r.failed;
        List.iter (fail acc) r.failures;
        acc.failed <- acc.failed + r.failed - List.length r.failures;
        record_start acc ~kernel:r.setup_kernel_s ~setup:r.setup_s ~rss:r.rss_mb;
        List.iter
          (fun (s : Serve.segment) ->
            record_ops acc ~kernel:s.kernel_s ~lats:s.latencies ~ops:s.ok
              ~window:s.window_s;
            if trace then acc.ledger.client <- s.latencies @ acc.ledger.client)
          r.segments;
        if trace then Serve.record_metrics acc.ledger r.metrics;
        replica_work r
  in
  (acc, step)

(* ---- summaries ------------------------------------------------------- *)

(* End-to-end metrics: (name, unit, summary). Samples are kept newest
   first, so blocks are consecutive stretches of the run. *)
let end_to_end acc =
  let b = Stats.blocked Stats.median in
  let rate l =
    float_of_int (List.fold_left (fun n (o, _) -> n + o) 0 l)
    /. List.fold_left (fun t (_, w) -> t +. w) 0.0 l
  in
  [
    ("latency_p50_ms", "ms", b (List.map (fun x -> x *. 1e3) acc.lat));
    ("throughput_rps", "1/s", Stats.blocked rate acc.slices);
    ("setup_s", "s", b acc.setup);
    ("peak_rss_mb", "MB", b acc.rss);
    ("accuracy_db", "dB", b acc.accuracy);
  ]

(* Reported in [run] documents for information, not gated. The tail is
   the highest percentile with ten samples beyond it: p99 over the
   thousands of pooled serve requests, p75 over the few dozen one-shot
   processes; its run-to-run spread (0.07-0.13) is too wide to gate. The
   raw numbers are the ones the scaled metrics were computed from. *)
let info acc =
  let ms = List.map (fun x -> x *. 1e3) in
  let tail = if is_serve acc.name then 0.99 else 0.75 in
  [
    ("latency_tail_ms", Json.Float (Stats.quantile (ms acc.lat) tail));
    ("raw_latency_p50_ms", Json.Float (Stats.median (ms acc.raw)));
    ("raw_throughput_rps", Json.Float (float_of_int acc.ops /. acc.busy));
    ("calibration_ms", Json.Float (1e3 *. Stats.median acc.calib));
  ]

let value_json ?(full = false) v unit (s : Stats.summary option) =
  Json.Obj
    ([ ("value", Json.Float v); ("unit", Json.String unit) ]
    @
    match s with
    | Some s when full ->
        [ ("q1", Json.Float s.q1); ("q3", Json.Float s.q3); ("n", Json.Int s.n) ]
    | _ -> [])

let metrics_json ?full ~trace acc =
  if trace then
    List.map (fun (k, v, unit) -> (k, value_json v unit None)) (Ledger.finish acc.ledger)
  else
    List.map
      (fun (k, unit, (s : Stats.summary)) -> (k, value_json ?full s.value unit (Some s)))
      (end_to_end acc)

(* ---- driving --------------------------------------------------------- *)

let make ~smoke ~seed ~trace ~seconds ~trace_out name =
  let trace_out = Option.map (fun p -> p ^ "." ^ name) trace_out in
  if is_serve name then serve ~smoke ~seed ~trace ~seconds ~trace_out name
  else oneshot ~smoke ~seed ~trace ~trace_out name

(* Step every workload in turn until each has measured [seconds]. *)
let drive ~seconds runners =
  let pending () = List.filter (fun (acc, _) -> acc.busy < seconds) runners in
  let rec go () =
    match pending () with
    | [] -> ()
    | l ->
        List.iter
          (fun (acc, step) ->
            let before = acc.attempted in
            step ();
            (* a workload that cannot complete an operation ends here *)
            if acc.attempted > before && acc.ops = 0 && acc.failed >= 3 then
              acc.busy <- infinity)
          l;
        go ()
  in
  go ()

let report_failures acc =
  List.iter (fun m -> Printf.eprintf "perf: %s: %s\n%!" acc.name m) (List.rev acc.failures)

let single ~workload ~seed ~seconds ~trace =
  if not (List.mem workload workloads) then begin
    Printf.eprintf "perf: unknown workload %S\n" workload;
    exit 2
  end;
  let acc, step = make ~smoke:false ~seed ~trace ~seconds ~trace_out:None workload in
  drive ~seconds [ (acc, step) ];
  report_failures acc;
  let correct = acc.failed = 0 && acc.ops > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 acc.attempted));
            ("failed", Json.Int acc.failed);
            ("metrics", Json.Obj (metrics_json ~trace acc));
          ]));
  if not correct then exit 1

let host ~seed =
  let cpu =
    try
      In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | Some l when String.starts_with ~prefix:"model name" l ->
                String.trim (List.nth (String.split_on_char ':' l) 1)
            | Some _ -> go ()
            | None -> "unknown"
          in
          go ())
    with Sys_error _ -> "unknown"
  in
  let commit =
    if not (Sys.file_exists ".git") then "unknown"
    else
      let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] in
      let c = Option.value ~default:"unknown" (In_channel.input_line ic) in
      match Unix.close_process_in ic with Unix.WEXITED 0 -> c | _ -> "unknown"
  in
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("cpu", Json.String cpu);
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String commit);
      ("seed", Json.Int seed);
    ]

let print_table ~trace accs =
  List.iter
    (fun acc ->
      Printf.printf "\n%s  (attempted %d, failed %d)\n" acc.name acc.attempted acc.failed;
      if trace then
        List.iter
          (fun (k, v, unit) -> Printf.printf "  %-40s %14.6g %s\n" k v unit)
          (Ledger.finish acc.ledger)
      else
        List.iter
          (fun (k, unit, (s : Stats.summary)) ->
            Printf.printf "  %-16s %12.4f %-4s [blocks q1 %.4f, q3 %.4f; n %d]\n" k s.value
              unit s.q1 s.q3 s.n)
          (end_to_end acc))
    accs

let run ~seed ~seconds ~smoke ~trace ~out =
  let modes = if smoke then [ false; true ] else [ trace ] in
  let trace_out =
    Option.map (fun f -> Filename.remove_extension f) (if trace then out else None)
  in
  let results =
    List.map
      (fun trace ->
        let runners =
          List.map (make ~smoke ~seed ~trace ~seconds ~trace_out) workloads
        in
        drive ~seconds runners;
        let accs = List.map fst runners in
        List.iter report_failures accs;
        print_table ~trace accs;
        (trace, accs))
      modes
  in
  let accs = List.assoc (List.hd modes) results in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "opm-perf-v1");
        ("host", host ~seed);
        ("seconds", Json.Float seconds);
        ("smoke", Json.Bool smoke);
        ( "workloads",
          Json.Obj
            (List.mapi
               (fun i acc ->
                 let section trace =
                   match List.assoc_opt trace results with
                   | Some accs ->
                       [
                         ( (if trace then "per_layer" else "end_to_end"),
                           Json.Obj (metrics_json ~full:true ~trace (List.nth accs i)) );
                       ]
                   | None -> []
                 in
                 let attempted = List.fold_left (fun n (_, a) -> n + (List.nth a i).attempted) 0 results in
                 let failed = List.fold_left (fun n (_, a) -> n + (List.nth a i).failed) 0 results in
                 ( acc.name,
                   Json.Obj
                     ([
                        ("attempted", Json.Int attempted);
                        ("failed", Json.Int failed);
                        ("failed_frac", Json.Float (float_of_int failed /. float_of_int (max 1 attempted)));
                      ]
                     @ section false @ section true
                     @ [ ("info", Json.Obj (info acc)) ]) ))
               accs) );
      ]
  in
  Option.iter (fun f -> Json.to_file ~indent:true f doc) out;
  if List.exists (fun (_, accs) -> List.exists (fun a -> a.failed > 0 || a.ops = 0) accs) results
  then exit 1

(* ---- compare and check ----------------------------------------------- *)

let bench_metrics bench section =
  match Option.bind (Json.member section bench) Json.to_list_opt with
  | Some l -> l
  | None -> []

let str k j = Option.bind (Json.member k j) Json.to_string_opt |> Option.value ~default:""
let num k j = Option.bind (Json.member k j) Json.to_float_opt

let compare_docs ~bench base fresh =
  let worse = ref 0 in
  let workloads_of d =
    match Json.member "workloads" d with Some (Json.Obj l) -> l | _ -> []
  in
  Printf.printf "%-20s %-15s %-30s %-30s %6s  %s\n" "workload" "metric"
    "base [block q1, q3]" "new [block q1, q3]" "ratio" "verdict";
  List.iter
    (fun (w, b) ->
      match List.assoc_opt w (workloads_of fresh) with
      | None -> Printf.printf "%-20s missing from the new result\n" w
      | Some n ->
          let metric section name =
            ( Option.bind (Json.member section b) (Json.member name),
              Option.bind (Json.member section n) (Json.member name) )
          in
          List.iter
            (fun m ->
              let name = str "name" m in
              match metric "end_to_end" name with
              | Some bm, Some nm -> (
                  match (num "value" bm, num "value" nm) with
                  | Some bv, Some nv ->
                      let bound = Option.value ~default:0.0 (num "bound" m) in
                      let lower = str "better" m = "lower" in
                      let worse_by = (if lower then nv -. bv else bv -. nv) /. Float.abs bv in
                      let spread =
                        match (num "q1" bm, num "q3" bm) with
                        | Some q1, Some q3 -> (q3 -. q1) /. Float.abs bv
                        | _ -> 0.0
                      in
                      (* better only by more than the base moves within
                         a run (choosing-metrics guide, section 8) *)
                      let verdict =
                        if spread > bound then "unresolved (base spread above bound)"
                        else if worse_by > bound then begin
                          incr worse;
                          "worse beyond bound"
                        end
                        else if -.worse_by > spread then "better"
                        else "within bound"
                      in
                      let cell v m =
                        Printf.sprintf "%.4g [%.4g, %.4g]" v
                          (Option.value ~default:Float.nan (num "q1" m))
                          (Option.value ~default:Float.nan (num "q3" m))
                      in
                      Printf.printf "%-20s %-15s %-30s %-30s %6.3f  %s\n" w name (cell bv bm)
                        (cell nv nm) (nv /. bv) verdict
                  | _ -> ())
              | _ -> ())
            (bench_metrics bench "end_to_end");
          List.iter
            (fun m ->
              let name = str "name" m in
              match metric "per_layer" name with
              | Some bm, Some nm -> (
                  match (num "value" bm, num "value" nm) with
                  | Some bv, Some nv when bv <> 0.0 ->
                      Printf.printf "%-20s %-40s ratio %.3f (information only)\n" w name
                        (nv /. bv)
                  | _ -> ())
              | _ -> ())
            (bench_metrics bench "per_layer"))
    (workloads_of base);
  if !worse > 0 then exit 1

(* CI gate over a smoke result: every metric BENCHMARK.json names is
   present on every workload, finite and in its unit; the layers cover at
   least 90 % of the traced wall; no operation failed. *)
let check result bench =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let workloads_doc = Option.value ~default:Json.Null (Json.member "workloads" result) in
  List.iter
    (fun w ->
      match Json.member w workloads_doc with
      | None -> err "%s: missing" w
      | Some doc ->
          if num "failed" doc <> Some 0.0 then err "%s: failed operations" w;
          List.iter
            (fun section ->
              List.iter
                (fun m ->
                  let name = str "name" m in
                  match Option.bind (Json.member section doc) (Json.member name) with
                  | None -> err "%s: %s missing" w name
                  | Some v ->
                      (match num "value" v with
                      | Some x when Float.is_finite x -> ()
                      | _ -> err "%s: %s not finite" w name);
                      if str "unit" v <> str "unit" m then
                        err "%s: %s in %S, expected %S" w name (str "unit" v) (str "unit" m))
                (bench_metrics bench section))
            [ "end_to_end"; "per_layer" ];
          match
            Option.bind (Json.member "per_layer" doc) (Json.member "layers.coverage")
            |> Fun.flip Option.bind (num "value")
          with
          | Some c when c >= 0.90 -> ()
          | Some c -> err "%s: layers.coverage %.3f < 0.90" w c
          | None -> ())
    workloads;
  match !errors with
  | [] -> print_endline "perf check: ok"
  | l ->
      List.iter (Printf.eprintf "perf check: %s\n") (List.rev l);
      exit 1

(* ---- command line ---------------------------------------------------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt k = function
    | x :: v :: _ when x = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let flag k = List.mem k args in
  let int_opt k d = Option.fold ~none:d ~some:int_of_string (opt k args) in
  let float_opt k d = Option.fold ~none:d ~some:float_of_string (opt k args) in
  match args with
  | "child" :: name :: _ ->
      Oneshot.child ~smoke:(flag "--smoke") ~trace:(flag "--trace")
        ~trace_out:(opt "--trace-out" args) name
  | "run" :: _ ->
      let smoke = flag "--smoke" in
      run ~seed:(int_opt "--seed" 1)
        ~seconds:(float_opt "--seconds" (if smoke then 1.5 else default_seconds))
        ~smoke ~trace:(flag "--trace") ~out:(opt "--out" args)
  | [ "compare"; base; fresh ] | [ "compare"; base; fresh; "--bench"; _ ] ->
      compare_docs
        ~bench:(Json.of_file (Option.value ~default:"BENCHMARK.json" (opt "--bench" args)))
        (Json.of_file base) (Json.of_file fresh)
  | [ "check"; result; bench ] -> check (Json.of_file result) (Json.of_file bench)
  | _ -> (
      match opt "--workload" args with
      | Some workload ->
          single ~workload ~seed:(int_opt "--seed" 1)
            ~seconds:(float_opt "--seconds" default_seconds)
            ~trace:(opt "--trace" args = Some "1")
      | None ->
          prerr_endline
            "usage: perf.exe --workload W --seed S --seconds T --trace 0|1\n\
            \       perf.exe run [--seed S] [--seconds T] [--smoke] [--trace] [--out F]\n\
            \       perf.exe compare BASE.json NEW.json [--bench BENCHMARK.json]\n\
            \       perf.exe check RESULT.json BENCHMARK.json";
          exit 2)
