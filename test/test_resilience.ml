(* Crash-safety suite: budget/deadline enforcement, checkpoint
   envelope integrity, Guard retry combinators, the seeded fault
   matrix, and the kill/resume differential on the Table-I windowed
   kernel.

   The two solver-level properties mirror the `bench resilience`
   gates at test granularity: (1) every injected fault yields either a
   structured [Opm_error.Error] / [Window.Interrupted] or a correct
   recovery — never a silently wrong answer and never NaN/Inf in a
   returned result; (2) a run killed at any window boundary by an
   injected checkpoint-write ENOSPC and resumed from the surviving
   checkpoint is bit-identical to the uninterrupted run, and to the
   unwindowed global solve.

   Seeded from OPM_PROP_SEED (default 20260806), same protocol as
   test_props.ml. *)

open Opm_numkit
open Opm_basis
open Opm_core
open Opm_robust

let base_seed =
  match Sys.getenv_opt "OPM_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 20260806)
  | None -> 20260806

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- the Table-I windowed kernel (shared by the solver-level
   tests); m = 256 keeps the FFT history path engaged so the fft-block
   fault site is live ---------- *)

let m = 256
let w = 64
let nwin = (m + w - 1) / w

let solve ?budget ?checkpoint ?resume_from ?(window = w) ?(alpha = Opm_circuit.Tline.alpha)
    ?memory_len () =
  let sys = Opm_circuit.Tline.model () in
  let srcs = Opm_circuit.Tline.inputs () in
  let grid = Grid.uniform ~t_end:Opm_circuit.Tline.t_end ~m in
  Opm.simulate_fractional ?budget ?checkpoint ~checkpoint_every:1 ?resume_from
    ?memory_len ~window ~grid ~alpha sys srcs

let bits_equal a b =
  let ra, ca = Mat.dims a and rb, cb = Mat.dims b in
  ra = rb && ca = cb
  &&
  try
    for i = 0 to ra - 1 do
      for j = 0 to ca - 1 do
        if
          not
            (Int64.equal
               (Int64.bits_of_float (Mat.get a i j))
               (Int64.bits_of_float (Mat.get b i j)))
        then raise Exit
      done
    done;
    true
  with Exit -> false

let all_finite x =
  let r, c = Mat.dims x in
  try
    for i = 0 to r - 1 do
      for j = 0 to c - 1 do
        if not (Float.is_finite (Mat.get x i j)) then raise Exit
      done
    done;
    true
  with Exit -> false

let with_tmp f =
  let path = Filename.temp_file "opm_test_resilience" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---------- Budget ---------- *)

let test_budget_create_validation () =
  let raises f =
    match f () with
    | (_ : Budget.t) -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "deadline_s <= 0" true
    (raises (fun () -> Budget.create ~deadline_s:0.0 ()));
  check_bool "max_factors <= 0" true
    (raises (fun () -> Budget.create ~max_factors:0 ()));
  check_bool "max_heap_mb <= 0" true
    (raises (fun () -> Budget.create ~max_heap_mb:(-1.0) ()));
  (* no limits: never trips *)
  let b = Budget.create () in
  for _ = 1 to 100 do
    Budget.check_deadline b ~site:"test";
    Budget.charge_factor b ~site:"test"
  done;
  check_int "checks counted" 100 (Budget.checks b);
  check_int "factors counted" 100 (Budget.factors b)

let test_budget_deadline_trips () =
  let b = Budget.create ~deadline_s:0.001 () in
  Unix.sleepf 0.005;
  (* first check always consults the clock, so the stride never delays
     the very first detection opportunity *)
  match Budget.check_deadline b ~site:"unit" with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Opm_error.Error (Opm_error.Deadline_exceeded { site; _ }) ->
      Alcotest.(check string) "site" "unit" site

let test_budget_deadline_stride () =
  (* between clock reads the check is a pure counter increment: checks
     2..32 must not trip even though the deadline has passed *)
  let b = Budget.create ~deadline_s:0.001 () in
  (try Budget.check_deadline b ~site:"warm" with Opm_error.Error _ -> ());
  Unix.sleepf 0.005;
  for _ = 2 to 32 do
    Budget.check_deadline b ~site:"quiet"
  done;
  (* the 33rd check (1 mod 32) reads the clock again *)
  (match Budget.check_deadline b ~site:"trip" with
  | () -> Alcotest.fail "expected the stride boundary to trip"
  | exception Opm_error.Error (Opm_error.Deadline_exceeded _) -> ());
  (* check_deadline_now ignores the stride *)
  let b2 = Budget.create ~deadline_s:0.001 () in
  (try Budget.check_deadline_now b2 ~site:"x" with Opm_error.Error _ -> ());
  Unix.sleepf 0.005;
  match Budget.check_deadline_now b2 ~site:"now" with
  | () -> Alcotest.fail "check_deadline_now must always read the clock"
  | exception Opm_error.Error (Opm_error.Deadline_exceeded _) -> ()

let test_budget_factor_cap () =
  let b = Budget.create ~max_factors:2 () in
  Budget.charge_factor b ~site:"f";
  Budget.charge_factor b ~site:"f";
  match Budget.charge_factor b ~site:"f" with
  | () -> Alcotest.fail "expected Budget_exhausted"
  | exception
      Opm_error.Error (Opm_error.Budget_exhausted { what; used; limit; _ }) ->
      Alcotest.(check string) "what" "factorisations" what;
      check_int "used" 3 used;
      check_int "limit" 2 limit

let test_budget_heap_cap () =
  let b = Budget.create ~max_heap_mb:1.0 () in
  Budget.charge_bytes b ~site:"h" 500_000;
  check_int "charged" 500_000 (Budget.heap_bytes b);
  (match Budget.charge_bytes b ~site:"h" 800_000 with
  | () -> Alcotest.fail "expected Budget_exhausted"
  | exception Opm_error.Error (Opm_error.Budget_exhausted { what; _ }) ->
      Alcotest.(check string) "what" "heap_bytes" what)

(* ---------- Checkpoint envelope ---------- *)

let test_checkpoint_float_codec () =
  let special =
    [| 0.0; -0.0; 1.5; -1.0e-300; Float.nan; Float.infinity;
       Float.neg_infinity; Float.min_float; Float.max_float |]
  in
  let back = Checkpoint.decode_floats (Checkpoint.encode_floats special) in
  check_int "length" (Array.length special) (Array.length back);
  Array.iteri
    (fun i v ->
      check_bool
        (Printf.sprintf "element %d bit-exact" i)
        true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float back.(i))))
    special

let test_checkpoint_roundtrip () =
  with_tmp @@ fun path ->
  let payload =
    Opm_obs.Json.Obj
      [
        ("window", Opm_obs.Json.Int 3);
        ("state", Checkpoint.encode_floats [| 1.0; Float.nan; -0.0 |]);
      ]
  in
  Checkpoint.save ~path payload;
  let back = Checkpoint.load ~path in
  check_bool "payload round-trips" true (back = payload);
  check_bool "no tmp file left behind" false (Sys.file_exists (path ^ ".tmp"))

let test_checkpoint_corruption () =
  with_tmp @@ fun path ->
  let expect_checkpoint_error what f =
    match f () with
    | (_ : Opm_obs.Json.t) ->
        Alcotest.failf "%s: expected Checkpoint_error" what
    | exception Opm_error.Error (Opm_error.Checkpoint_error _) -> ()
  in
  expect_checkpoint_error "missing file" (fun () ->
      Checkpoint.load ~path:(path ^ ".does-not-exist"));
  Checkpoint.save ~path (Opm_obs.Json.Obj [ ("k", Opm_obs.Json.Int 7) ]);
  (* flip one digit of the stored integer: the envelope checksum no
     longer matches the payload text *)
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let corrupt =
    String.map (fun c -> if c = '7' then '8' else c) text
  in
  let oc = open_out_bin path in
  output_string oc corrupt;
  close_out oc;
  expect_checkpoint_error "checksum mismatch" (fun () ->
      Checkpoint.load ~path);
  (* wrong schema tag *)
  let oc = open_out_bin path in
  output_string oc {|{"schema":"other-v9","version":1,"checksum":"0","payload":{}}|};
  close_out oc;
  expect_checkpoint_error "wrong schema" (fun () -> Checkpoint.load ~path);
  (* unparsable *)
  let oc = open_out_bin path in
  output_string oc "{not json";
  close_out oc;
  expect_checkpoint_error "parse failure" (fun () -> Checkpoint.load ~path)

(* ---------- Health artifact bound ---------- *)

let test_health_event_cap () =
  let h = Health.create () in
  let total = Health.event_cap + 88 in
  for c = 1 to total do
    Health.record_event h (Health.Dense_fallback { column = c })
  done;
  check_int "stored is capped" Health.event_cap
    (List.length (Health.events h));
  check_int "all events counted" total (Health.fallback_count h);
  check_int "dropped = overflow" 88 (Health.dropped_events h)

(* ---------- solver-level: budget interrupts carry a resumable
   partial ---------- *)

let test_solve_deadline_interrupts () =
  let budget = Budget.create ~deadline_s:1e-6 () in
  Unix.sleepf 0.002;
  match solve ~budget () with
  | (_ : Sim_result.t) -> Alcotest.fail "expected Window.Interrupted"
  | exception Window.Interrupted { error; completed_windows; _ } -> (
      check_bool "no window completed" true (completed_windows = 0);
      match error with
      | Opm_error.Deadline_exceeded _ -> ()
      | e -> Alcotest.failf "wrong error: %s" (Opm_error.to_string e))

(* ---------- solver-level: the fault matrix (satellite: every
   injected fault is a structured error or a clean recovery) ---------- *)

let test_fault_matrix () =
  Fault.disarm ();
  let reference = (solve ()).Sim_result.x in
  List.iter
    (fun site ->
      List.iter
        (fun kind ->
          let nth = match site with Fault.Factor -> 1 | _ -> 2 in
          let label =
            Printf.sprintf "%s/%s" (Fault.site_to_string site)
              (Fault.kind_to_string kind)
          in
          with_tmp @@ fun ck ->
          Fault.arm { Fault.seed = base_seed; site; kind; nth };
          Fun.protect ~finally:Fault.disarm @@ fun () ->
          match solve ~checkpoint:ck () with
          | r ->
              (* a NaN carried into the next window must surface as a
                 structured error: completing would mean the poison
                 never reached the column state *)
              if site = Fault.Window_handoff && kind = Fault.Nan_poison then
                Alcotest.failf "%s: run completed" label;
              (* completion is only acceptable when the result is clean:
                 finite everywhere and (if the fault actually fired)
                 equal to the reference within recovery tolerance *)
              check_bool (label ^ ": finite") true (all_finite r.Sim_result.x);
              if Fault.injected_total () > 0 then begin
                let scale = Float.max (Mat.norm_inf reference) 1e-300 in
                let rel =
                  Mat.max_abs_diff r.Sim_result.x reference /. scale
                in
                if not (rel <= 1e-6) then
                  Alcotest.failf "%s: silently wrong answer (rel %.3g)" label
                    rel
              end
          | exception Opm_error.Error _ -> ()
          | exception Window.Interrupted { partial; _ } ->
              check_bool (label ^ ": partial finite") true (all_finite partial)
          | exception e ->
              Alcotest.failf "%s: unstructured exception %s" label
                (Printexc.to_string e))
        Fault.all_kinds)
    Fault.all_sites

(* ---------- solver-level: kill/resume differential (satellite: kill
   at every window boundary, resume, demand bit-identity) ---------- *)

let kill_resume_differential ~nwin ?global
    (solve : ?checkpoint:string -> ?resume_from:string -> unit -> Sim_result.t) =
  Fault.disarm ();
  let reference = (solve ()).Sim_result.x in
  (* a window is a slice of the one column loop: without a memory
     cutoff the uninterrupted windowed run is the unwindowed global
     solve, bit for bit *)
  let global = Option.value global ~default:reference in
  if not (bits_equal reference global) then
    Alcotest.fail "the windowed run is not bit-identical to the global solve";
  for k = 1 to nwin do
    with_tmp @@ fun ck ->
    Sys.remove ck;
    (* the k-th checkpoint write dies with an injected ENOSPC, killing
       the run at that window boundary *)
    Fault.arm
      { Fault.seed = base_seed; site = Fault.Checkpoint_write;
        kind = Fault.Enospc; nth = k };
    (match solve ~checkpoint:ck () with
    | (_ : Sim_result.t) ->
        Fault.disarm ();
        Alcotest.failf "boundary %d: expected Window.Interrupted" k
    | exception Window.Interrupted { checkpoint; _ } -> (
        Fault.disarm ();
        match checkpoint with
        | None ->
            (* died on the very first write: nothing to resume from,
               which is the documented cold-restart case *)
            check_int "only the first boundary lacks a checkpoint" 1 k
        | Some path ->
            let resumed = solve ~resume_from:path () in
            if not (bits_equal resumed.Sim_result.x reference) then
              Alcotest.failf
                "boundary %d: resumed run is not bit-identical" k;
            if not (bits_equal resumed.Sim_result.x global) then
              Alcotest.failf
                "boundary %d: resumed run differs from the global solve" k)
    | exception e ->
        Fault.disarm ();
        raise e)
  done

(* α = 0.5 replays the convolver alone; α = 1.5 (N = 1) also the lag
   and forcing rings; with a memory cutoff the resumed run must also
   cut its replayed history at the window it resumes *)
let test_kill_resume_differential () =
  List.iter
    (fun (alpha, memory_len) ->
      kill_resume_differential ~nwin
        ?global:
          (if memory_len = None then Some (solve ~window:m ~alpha ()).Sim_result.x else None)
        (fun ?checkpoint ?resume_from () -> solve ?checkpoint ?resume_from ~alpha ?memory_len ()))
    [ (Opm_circuit.Tline.alpha, None); (1.5, None); (1.5, Some 32) ]

(* the same kill/resume at every boundary of order-1 windows over a
   singular E: an RC–RL ladder driven by a voltage source *)
let dae_m = 128
let dae_w = 16

let solve_dae ?checkpoint ?resume_from ?(window = dae_w) () =
  let sys, srcs =
    Opm_circuit.Mna.stamp_linear
      (Opm_circuit.Parser.parse_string
         "V1 in 0 sin(0.5 1 1e5 0.3)\n\
          R1 in n1 1k\n\
          C1 n1 0 1n\n\
          L1 n1 n2 1m\n\
          R2 n2 0 2k\n\
          R3 n2 n3 1k\n\
          C2 n3 0 2n\n\
          L2 n3 n4 0.5m\n\
          R4 n4 0 1k\n")
  in
  Opm.simulate_multi_term ?checkpoint ~checkpoint_every:1 ?resume_from
    ~window ~grid:(Grid.uniform ~t_end:2e-5 ~m:dae_m) (Multi_term.of_linear sys) srcs

let test_kill_resume_dae () =
  kill_resume_differential ~nwin:(dae_m / dae_w)
    ~global:(solve_dae ~window:dae_m ()).Sim_result.x
    (fun ?checkpoint ?resume_from () -> solve_dae ?checkpoint ?resume_from ())

(* Checkpoints of older payloads must be refused with a structured
   error, not resumed into the wrong state: order-1 windows once carried
   an endpoint vector under fingerprint kind "linear", and windows once
   carried integer-recurrence rings and fractional tails next to the
   prefix under kind "general". Both are rebuilt here from a current
   checkpoint of the same run. *)
let test_linear_kind_checkpoint_refused () =
  let module Json = Opm_obs.Json in
  let relabel kind = function
    | Json.Obj fields ->
        Json.Obj
          (List.map (fun (k, v) -> if k = "kind" then (k, Json.String kind) else (k, v)) fields)
    | j -> j
  in
  let linear = function
    | Json.Obj fields ->
        Json.Obj
          (List.map (fun (k, v) -> if k = "fingerprint" then (k, relabel "linear" v) else (k, v)) fields)
    | j -> j
  in
  (* the ring-state payload: the prefix plus next_window, the handoff
     time and the x/y rings, under kind "general" *)
  let ring_state = function
    | Json.Obj fields ->
        let ring = Json.List [ Checkpoint.encode_floats [||] ] in
        Json.Obj
          (List.map (fun (k, v) -> if k = "fingerprint" then (k, relabel "general" v) else (k, v)) fields
          @ [
              ("next_window", Json.Int (dae_m / dae_w));
              ("handoff", Checkpoint.encode_floats [| 0.0 |]);
              ( "state",
                Json.Obj
                  [ ("xring", ring); ("terms", Json.List [ Json.Obj [ ("yring", ring) ] ]) ] );
            ])
    | j -> j
  in
  List.iter
    (fun (name, rewrite) ->
      with_tmp @@ fun ck ->
      ignore (solve_dae ~checkpoint:ck () : Sim_result.t);
      Checkpoint.save ~path:ck (rewrite (Checkpoint.load ~path:ck));
      match solve_dae ~resume_from:ck () with
      | (_ : Sim_result.t) -> Alcotest.failf "a %s checkpoint was resumed" name
      | exception Opm_error.Error (Opm_error.Checkpoint_error _) -> ())
    [ ("\"linear\"", linear); ("ring-state", ring_state) ]

let () =
  Alcotest.run "resilience"
    [
      ( "budget",
        [
          Alcotest.test_case "create validation" `Quick
            test_budget_create_validation;
          Alcotest.test_case "deadline trips" `Quick
            test_budget_deadline_trips;
          Alcotest.test_case "deadline stride" `Quick
            test_budget_deadline_stride;
          Alcotest.test_case "factor cap" `Quick test_budget_factor_cap;
          Alcotest.test_case "heap cap" `Quick test_budget_heap_cap;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "float codec bit-exact" `Quick
            test_checkpoint_float_codec;
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "corruption detected" `Quick
            test_checkpoint_corruption;
        ] );
      ( "health",
        [ Alcotest.test_case "event cap" `Quick test_health_event_cap ] );
      ( "solver",
        [
          Alcotest.test_case "deadline interrupts with partial" `Quick
            test_solve_deadline_interrupts;
          Alcotest.test_case "fault matrix" `Slow test_fault_matrix;
          Alcotest.test_case "kill/resume bit-identity" `Slow
            test_kill_resume_differential;
          Alcotest.test_case "kill/resume bit-identity, order-1 DAE" `Slow
            test_kill_resume_dae;
          Alcotest.test_case "order-1 \"linear\" checkpoint refused" `Quick
            test_linear_kind_checkpoint_refused;
        ] );
    ]
