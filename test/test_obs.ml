(* Tests for the observability layer (lib/obs): the JSON printer and
   parser, the metrics registry, span tracing, the merged report — and
   the two contract properties the instrumentation must keep:
   bit-identical solver output when disabled, bounded overhead when
   enabled (the strict < 2% budget is measured by
   `bench/main.exe obs-overhead`; here we only assert a loose bound so
   CI noise cannot flake the suite). *)

open Opm_obs
open Opm_numkit
open Opm_signal
open Opm_basis
open Opm_core
open Opm_circuit

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* every test starts from a clean, disabled registry *)
let fresh () =
  Metrics.set_enabled false;
  Trace.set_enabled false;
  Metrics.reset ();
  Trace.reset ()

(* ---------- Json ---------- *)

let sample_doc =
  Json.Obj
    [
      ("a", Json.Int 42);
      ("b", Json.Float 1.5);
      ("c", Json.String "hi \"there\"\n");
      ("d", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
      ("e", Json.Obj [ ("nested", Json.List [ Json.Int (-7) ]) ]);
    ]

let test_json_roundtrip () =
  fresh ();
  let s = Json.to_string sample_doc in
  let doc = Json.of_string s in
  check_int "a" 42
    (Option.get (Json.to_int_opt (Option.get (Json.member "a" doc))));
  check_string "c" "hi \"there\"\n"
    (Option.get (Json.to_string_opt (Option.get (Json.member "c" doc))));
  (match Json.member "d" doc with
  | Some (Json.List [ Json.Bool true; Json.Bool false; Json.Null ]) -> ()
  | _ -> Alcotest.fail "list did not round-trip");
  (* round-tripping the printed form must be a fixed point *)
  check_string "fixed point" s (Json.to_string (Json.of_string s))

let test_json_non_finite () =
  fresh ();
  (* NaN/Inf have no JSON representation: they serialise as null, which
     is exactly what bench/validate.ml treats as a poisoned cell *)
  check_string "nan" "null" (Json.to_string (Json.Float Float.nan));
  check_string "inf" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_parse_errors () =
  fresh ();
  let fails s =
    match Json.of_string s with
    | _ -> Alcotest.failf "parsed %S" s
    | exception Json.Parse_error _ -> ()
  in
  fails "{\"a\": }";
  fails "[1, 2";
  fails "tru";
  fails "{\"a\": 1} trailing"

(* The float printer must emit the bytes of the Printf rule it replaced:
   "%.1f" for integers below 1e15, else "%.12g" when that round-trips,
   else "%.17g". Random bit patterns cover every exponent, the rest the
   values responses carry (short decimals, integers, the 1e15 edge). *)
let old_float_rule x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let test_json_float_bytes () =
  let seed =
    match Sys.getenv_opt "OPM_PROP_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 20260806)
    | None -> 20260806
  in
  let st = Random.State.make [| 0x150; seed |] in
  let sample k =
    match k mod 4 with
    | 0 -> Int64.float_of_bits (Random.State.bits64 st)
    | 1 -> float_of_int (Random.State.int st 2000 - 1000) /. 1000.0
    | 2 -> Float.of_int (Random.State.bits st) *. 1e-3
    | _ -> Random.State.float st 2e15 -. 1e15
  in
  let edges = [ 0.0; -0.0; 1e15; -1e15; 1e15 -. 1.0; 0.1; 1e-320; Float.max_float; nan; infinity ] in
  List.iteri
    (fun k x ->
      let want = old_float_rule x and got = Json.to_string (Json.Float x) in
      if want <> got then
        Alcotest.failf "case %d (%h, OPM_PROP_SEED=%d): %s <> %s" k x seed got want)
    (edges @ List.init 200_000 sample)

(* ---------- Metrics ---------- *)

let test_counter_gating () =
  fresh ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  check_int "disabled incr is a no-op" 0 (Metrics.counter_value c);
  Metrics.set_enabled true;
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "enabled" 5 (Metrics.counter_value c);
  Metrics.reset ();
  check_int "reset" 0 (Metrics.counter_value c);
  check_bool "same name, same instrument" true
    (c == Metrics.counter "test.counter")

let test_histogram_buckets () =
  fresh ();
  Metrics.set_enabled true;
  let h = Metrics.histogram "test.hist" in
  (* observe each bucket's lower bound plus a nudge: the snapshot must
     report exactly one count per bucket, keyed by that lower bound *)
  for i = 0 to Metrics.bucket_count - 1 do
    Metrics.observe h (Metrics.bucket_lower_bound i *. 1.0000001)
  done;
  check_int "count" Metrics.bucket_count (Metrics.histogram_count h);
  let buckets =
    match
      Json.member "histograms" (Metrics.snapshot ())
      |> Fun.flip Option.bind (Json.member "test.hist")
      |> Fun.flip Option.bind (Json.member "buckets")
    with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no buckets in snapshot"
  in
  check_int "all buckets hit" Metrics.bucket_count (List.length buckets);
  List.iteri
    (fun i entry ->
      match entry with
      | Json.List [ lb; Json.Int 1 ] ->
          let lb = Option.get (Json.to_float_opt lb) in
          if abs_float (lb -. Metrics.bucket_lower_bound i) > 1e-18 then
            Alcotest.failf "bucket %d lower bound %.3g <> %.3g" i lb
              (Metrics.bucket_lower_bound i)
      | _ -> Alcotest.failf "bucket %d malformed" i)
    buckets;
  (* zero and NaN land in the underflow clamp bucket, not a crash *)
  Metrics.observe h 0.0;
  Metrics.observe h Float.nan;
  check_int "clamped" (Metrics.bucket_count + 2) (Metrics.histogram_count h)

let test_timers () =
  fresh ();
  Metrics.set_enabled true;
  let h = Metrics.histogram "test.timer" in
  let r = Metrics.time h (fun () -> 1 + 1) in
  check_int "time returns the thunk's value" 2 r;
  check_int "one observation" 1 (Metrics.histogram_count h);
  let t = ref (Metrics.lap_start ()) in
  for _ = 1 to 3 do
    t := Metrics.lap h !t
  done;
  check_int "three laps" 4 (Metrics.histogram_count h);
  check_bool "sum is finite and non-negative" true
    (Float.is_finite (Metrics.histogram_sum h)
    && Metrics.histogram_sum h >= 0.0)

(* ---------- Trace ---------- *)

let test_trace_spans () =
  fresh ();
  Trace.set_enabled true;
  let r =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "inner" (fun () -> 7)
        + Trace.with_span "inner" (fun () -> 1))
  in
  check_int "value through spans" 8 r;
  check_int "three spans recorded" 3 (Trace.span_count ());
  let doc = Trace.to_chrome_json () in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents"
  in
  check_int "three events" 3 (List.length events);
  List.iter
    (fun e ->
      (match Json.member "ph" e with
      | Some (Json.String "X") -> ()
      | _ -> Alcotest.fail "ph <> X");
      List.iter
        (fun f ->
          match Json.member f e with
          | Some v when Json.to_float_opt v <> None -> ()
          | _ -> Alcotest.failf "missing numeric %s" f)
        [ "ts"; "dur"; "pid"; "tid" ])
    events;
  let profile = Trace.to_profile_string () in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_bool "profile mentions nested path" true (contains profile "outer/inner");
  Trace.reset ();
  check_int "reset drops spans" 0 (Trace.span_count ())

(* ---------- Report ---------- *)

let test_report_merge () =
  fresh ();
  Metrics.set_enabled true;
  Trace.set_enabled true;
  Metrics.incr (Metrics.counter "test.report.counter");
  Trace.with_span "test.report.span" (fun () -> ());
  let doc = Report.make ~run:[ ("cmd", Json.String "unit-test") ] () in
  (match Json.member "schema" doc with
  | Some (Json.String s) -> check_string "schema" Report.schema_version s
  | _ -> Alcotest.fail "missing schema");
  (match
     Json.member "run" doc |> Fun.flip Option.bind (Json.member "cmd")
   with
  | Some (Json.String "unit-test") -> ()
  | _ -> Alcotest.fail "run params not merged");
  (match
     Json.member "metrics" doc
     |> Fun.flip Option.bind (Json.member "counters")
     |> Fun.flip Option.bind (Json.member "test.report.counter")
   with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "metrics snapshot not merged");
  (match
     Json.member "trace" doc |> Fun.flip Option.bind (Json.member "spans")
   with
  | Some (Json.Int n) when n >= 1 -> ()
  | _ -> Alcotest.fail "trace summary not merged");
  (* a report parses back: it is valid JSON *)
  ignore (Json.of_string (Json.to_string doc))

(* ---------- instrumentation contract ---------- *)

let kernel () =
  let input = Source.Step { amplitude = 1.0; delay = 0.0 } in
  let net = Generators.rc_ladder ~sections:6 ~input () in
  let sys, srcs = Mna.stamp_linear net in
  let r =
    Opm.simulate_linear ~grid:(Grid.uniform ~t_end:2e-5 ~m:128) sys srcs
  in
  r.Sim_result.x

let test_bit_identity () =
  fresh ();
  let x_off = kernel () in
  Metrics.set_enabled true;
  Trace.set_enabled true;
  let x_on = kernel () in
  Metrics.set_enabled false;
  Trace.set_enabled false;
  let rows, cols = Mat.dims x_off in
  check_int "dims" rows (fst (Mat.dims x_on));
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if
        Int64.bits_of_float (Mat.get x_off i j)
        <> Int64.bits_of_float (Mat.get x_on i j)
      then
        Alcotest.failf "x(%d,%d) differs bitwise: %h vs %h" i j
          (Mat.get x_off i j) (Mat.get x_on i j)
    done
  done

let test_overhead_loose () =
  fresh ();
  ignore (kernel ());
  (* warm *)
  let time_batch () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 5 do
      ignore (kernel ())
    done;
    Unix.gettimeofday () -. t0
  in
  let off = time_batch () in
  Metrics.set_enabled true;
  Trace.set_enabled true;
  let on = time_batch () in
  Metrics.set_enabled false;
  Trace.set_enabled false;
  (* loose sanity bound (2×) — the calibrated < 2% budget is checked by
     the interleaved median measurement in `bench/main.exe obs-overhead` *)
  check_bool
    (Printf.sprintf "instrumented run not pathologically slower (%.3f vs %.3f s)"
       on off)
    true
    (on < 2.0 *. off +. 0.05)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "non-finite -> null" `Quick test_json_non_finite;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "float bytes match the Printf rule" `Quick
            test_json_float_bytes;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter gating + reset" `Quick test_counter_gating;
          Alcotest.test_case "histogram bucket layout" `Quick
            test_histogram_buckets;
          Alcotest.test_case "timers and laps" `Quick test_timers;
        ] );
      ( "trace",
        [ Alcotest.test_case "nested spans + chrome json" `Quick test_trace_spans ]
      );
      ( "report",
        [ Alcotest.test_case "merged document" `Quick test_report_merge ] );
      ( "contract",
        [
          Alcotest.test_case "disabled -> bit-identical" `Quick
            test_bit_identity;
          Alcotest.test_case "enabled -> bounded overhead" `Slow
            test_overhead_loose;
        ] );
    ]
