(* opm_sim — command-line circuit simulator.

   Parses a SPICE-flavoured netlist, stamps it (MNA; second-order NA is
   available through the library API), and runs one of:
   - transient analysis (OPM and the baseline methods), CSV on stdout;
   - AC analysis (Bode CSV);
   - DC operating point;
   - pole analysis. *)

open Cmdliner
open Opm_basis
open Opm_core
open Opm_circuit
open Opm_transient
open Opm_analysis

type method_ =
  | Opm_method
  | Be
  | Trap
  | Gear
  | Fft
  | Gl
  | Opm_adaptive
  | Exact

let method_conv =
  let parse = function
    | "opm" -> Ok Opm_method
    | "opm-adaptive" -> Ok Opm_adaptive
    | "be" | "backward-euler" -> Ok Be
    | "trap" | "trapezoidal" -> Ok Trap
    | "gear" | "bdf2" -> Ok Gear
    | "fft" -> Ok Fft
    | "gl" | "grunwald" -> Ok Gl
    | "exact" -> Ok Exact
    | s -> Error (`Msg (Printf.sprintf "unknown method %S" s))
  in
  let print ppf m =
    Fmt.string ppf
      (match m with
      | Opm_method -> "opm"
      | Opm_adaptive -> "opm-adaptive"
      | Be -> "be"
      | Trap -> "trap"
      | Gear -> "gear"
      | Fft -> "fft"
      | Gl -> "gl"
      | Exact -> "exact")
  in
  Arg.conv (parse, print)

type mode = Tran | Ac_mode | Dc_mode | Poles_mode | Step_mode | Impulse_mode

let mode_conv =
  let parse = function
    | "tran" -> Ok Tran
    | "ac" -> Ok Ac_mode
    | "dc" -> Ok Dc_mode
    | "poles" -> Ok Poles_mode
    | "step-response" -> Ok Step_mode
    | "impulse-response" -> Ok Impulse_mode
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print ppf m =
    Fmt.string ppf
      (match m with
      | Tran -> "tran"
      | Ac_mode -> "ac"
      | Dc_mode -> "dc"
      | Poles_mode -> "poles"
      | Step_mode -> "step-response"
      | Impulse_mode -> "impulse-response")
  in
  Arg.conv (parse, print)

let netlist_arg =
  let doc = "Netlist file to simulate." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST" ~doc)

let mode_arg =
  let doc =
    "Analysis mode: tran (default), ac, dc, poles, step-response, \
     impulse-response. The response modes compile the plant once and \
     answer one query per input, exporting an \
     OPOM-style response-model CSV (one column per output × input pair)."
  in
  Arg.(value & opt mode_conv Tran & info [ "mode" ] ~docv:"MODE" ~doc)

let t_end_arg =
  let doc = "Simulation end time in seconds (tran)." in
  Arg.(value & opt (some float) None & info [ "t"; "tend" ] ~docv:"T" ~doc)

let steps_arg =
  let doc = "Number of time steps (OPM: BPF intervals; FFT: samples)." in
  Arg.(value & opt int 128 & info [ "m"; "steps" ] ~docv:"M" ~doc)

let method_arg =
  let doc =
    "Transient method: opm, opm-adaptive, be (backward Euler), trap \
     (trapezoidal), gear (BDF2), fft (frequency domain), gl \
     (Grünwald–Letnikov), exact (matrix-exponential reference; ODE only)."
  in
  Arg.(value & opt method_conv Opm_method & info [ "method" ] ~docv:"METHOD" ~doc)

let probes_arg =
  let doc = "Output node to probe (repeatable). Defaults to every node voltage." in
  Arg.(value & opt_all string [] & info [ "probe" ] ~docv:"NODE" ~doc)

let tol_arg =
  let doc = "Local error tolerance for opm-adaptive." in
  Arg.(value & opt float 1e-4 & info [ "tol" ] ~doc)

let window_arg =
  let doc =
    "Windowed streaming for the opm method: one column loop over the \
     horizon with a boundary every $(docv) steps, where the completed \
     window is committed and checkpointed (see $(b,--checkpoint)). \
     Without $(b,--memory-len) the output is that of the unwindowed run, \
     bit for bit. $(docv) ≥ the step count runs the ordinary global \
     solve. Other methods ignore it with a warning."
  in
  Arg.(value & opt (some int) None & info [ "window" ] ~docv:"W" ~doc)

let memory_len_arg =
  let doc =
    "With $(b,--window): at each window start, keep the fractional \
     history of the last $(docv) steps only (the short-memory principle; \
     the error is bounded by the discarded mass of the fractional \
     kernel). Default: full history — exact. Integer-order history is \
     always carried exactly."
  in
  Arg.(value & opt (some int) None & info [ "memory-len" ] ~docv:"K" ~doc)

let basis_conv : Compiled_model.basis Arg.conv =
  let parse = function
    | "bpf" -> Ok `Bpf
    | "spectral" -> Ok `Spectral
    | s -> Error (`Msg (Printf.sprintf "unknown basis %S (bpf|spectral)" s))
  in
  let print fmt b =
    Format.pp_print_string fmt
      (match b with `Bpf -> "bpf" | `Spectral -> "spectral")
  in
  Arg.conv (parse, print)

let basis_arg =
  let doc =
    "Discretisation basis for the opm method: bpf (default, the paper's \
     block pulses) or spectral (Jacobi-Gauss collocation — $(b,--steps) \
     becomes the collocation-node count, so $(b,--basis spectral -m 32) \
     replaces thousands of block pulses on smooth sources; discontinuous \
     sources are better served by bpf)."
  in
  Arg.(value & opt basis_conv `Bpf & info [ "basis" ] ~docv:"BASIS" ~doc)

let fstart_arg =
  let doc = "AC sweep start frequency (Hz)." in
  Arg.(value & opt float 1.0 & info [ "fstart" ] ~doc)

let fstop_arg =
  let doc = "AC sweep stop frequency (Hz)." in
  Arg.(value & opt float 1e9 & info [ "fstop" ] ~doc)

let points_arg =
  let doc = "AC sweep point count." in
  Arg.(value & opt int 50 & info [ "points" ] ~doc)

let domains_arg =
  let doc =
    "Domain-pool size for the parallel analyses (AC sweeps, FFT transient). \
     Defaults to $(b,OPM_DOMAINS) or the hardware core count; 1 forces \
     serial execution. Results are bit-identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let check_arg =
  let doc =
    "Print a simulation health report (NaN/Inf counts, worst condition \
     estimate, fallback events) to stderr after a transient run."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let strict_arg =
  let doc =
    "Like $(b,--check), but exit with status 3 if the health report \
     contains any warning."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let metrics_arg =
  let doc =
    "Enable solver metrics (counters, timers, condition gauges) and \
     print them to stderr after the run, followed by a flat span \
     profile when tracing was on."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_arg =
  let doc =
    "Record nested solver spans and write them to $(docv) in the Chrome \
     trace_event format (open with chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let report_arg =
  let doc =
    "Write one merged JSON report — run parameters, metrics snapshot, \
     span profile, solver health — to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let checkpoint_arg =
  let doc =
    "Write a resumable checkpoint (schema opm-checkpoint-v1, atomic \
     tmp+rename) to $(docv) after each window of a windowed opm \
     transient; requires $(b,--window). On interruption, pass the file \
     back with $(b,--resume) to continue bit-identically."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_arg =
  let doc =
    "Resume a windowed opm transient from a checkpoint written by \
     $(b,--checkpoint). The run parameters (netlist stamp, steps, \
     window, memory length, t_end) must match the writing run exactly."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let checkpoint_every_arg =
  let doc = "With $(b,--checkpoint): snapshot every $(docv)-th window." in
  Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Abort the transient solve with a structured error (exit 4) once \
     $(docv) seconds of wall clock have elapsed; windowed runs keep the \
     completed-window prefix and the last checkpoint."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let max_factors_arg =
  let doc = "Abort after $(docv) pencil factorisations (budget cap)." in
  Arg.(value & opt (some int) None & info [ "max-factors" ] ~docv:"N" ~doc)

let max_heap_arg =
  let doc =
    "Abort once the solver's matrix-allocation estimate exceeds $(docv) \
     MB (budget cap)."
  in
  Arg.(value & opt (some float) None & info [ "max-heap" ] ~docv:"MB" ~doc)

let fault_arg =
  let doc =
    "Arm one seeded injected fault: $(docv) is seed:site:nth or \
     seed:site:kind:nth (sites: factor, column-solve, fft-block, \
     window-handoff, checkpoint-write, pool-dispatch; kinds: singular, \
     nan-poison, enospc, latency). Overrides $(b,OPM_FAULT_PLAN). \
     Testing hook: an injected fault always yields a structured error \
     or a clean recovery, never a silently wrong answer."
  in
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"PLAN" ~doc)

module Health = Opm_robust.Health
module Opm_error = Opm_robust.Opm_error
module Budget = Opm_robust.Budget
module Fault = Opm_robust.Fault
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

(* one-line usage errors → exit 2 (satellite contract: bad flag values
   never reach the solver) *)
exception Usage of string

let usage fmt = Printf.ksprintf (fun m -> raise (Usage m)) fmt

(* a budget/checkpoint interruption already printed its partial CSV and
   diagnostic; the sentinel just carries exit code 4 to the top *)
exception Interrupted_exit

(* An interrupted windowed solve still yields every completed window:
   print the usable prefix as ordinary CSV (on the truncated grid) and
   point the user at the checkpoint to resume from. *)
let handle_interrupted ~(mt : Multi_term.t) ~t_end ~steps f =
  try f ()
  with Window.Interrupted { error; partial; completed_windows; checkpoint } ->
    let module Mat = Opm_numkit.Mat in
    let _, cols = Mat.dims partial in
    if cols > 0 then begin
      let h = t_end /. float_of_int steps in
      let grid = Grid.uniform ~t_end:(h *. float_of_int cols) ~m:cols in
      let r =
        Sim_result.make ~grid ~x:partial ~c:mt.Multi_term.c
          ~state_names:mt.Multi_term.state_names
          ~output_names:mt.Multi_term.output_names ()
      in
      Opm_signal.Waveform.print_csv r.Sim_result.outputs
    end;
    Printf.eprintf "opm_sim: interrupted after %d completed window(s): %s%s\n%!"
      completed_windows
      (Opm_error.to_string error)
      (match checkpoint with
      | Some p -> Printf.sprintf " — resume with --resume %s" p
      | None -> "");
    raise Interrupted_exit

(* A singular pencil is reported by the engine with the failing state
   *index*; at this level we know the MNA state names, so attach the
   name before the error escapes to the user. *)
let with_state_names names f =
  try f ()
  with
  | Opm_error.Error
      (Opm_error.Singular_pencil ({ step; name = None; _ } as r))
    when step >= 0 && step < Array.length names ->
    Opm_error.raise_
      (Opm_error.Singular_pencil { r with name = Some names.(step) })

let run_tran ?health ?budget ?checkpoint ?checkpoint_every ?resume_from
    ?window ?memory_len ~basis net outputs t_end steps method_ tol =
  let t_end =
    match t_end with
    | Some t -> t
    | None -> failwith "transient analysis needs --tend"
  in
  (match (window, method_) with
  | Some _, (Be | Trap | Gear | Fft | Gl | Exact | Opm_adaptive) ->
      Printf.eprintf
        "opm_sim: warning: --window only applies to the opm methods; ignored\n%!"
  | _ -> ());
  (* the history tail is truncated only between windows: without an
     effective window every opm path carries the full history *)
  let memory_len =
    match (memory_len, window, method_) with
    | Some _, Some w, Opm_method when w < steps -> memory_len
    | None, _, _ -> None
    | Some _, _, _ ->
        Printf.eprintf
          "opm_sim: warning: --memory-len only applies with --window < \
           --steps; ignored\n%!";
        None
  in
  (match (basis, method_) with
  | `Spectral, (Be | Trap | Gear | Fft | Gl | Exact | Opm_adaptive) ->
      Printf.eprintf
        "opm_sim: warning: --basis only applies to the opm method; ignored\n%!"
  | _ -> ());
  let waveform =
    match method_ with
    | Opm_method ->
        let mt, srcs = Mna.stamp ?outputs net in
        let grid = Grid.uniform ~t_end ~m:steps in
        with_state_names mt.Multi_term.state_names (fun () ->
            handle_interrupted ~mt ~t_end ~steps (fun () ->
                (Opm.simulate_multi_term ~basis ?health ?budget ?checkpoint
                   ?checkpoint_every ?resume_from ?window ?memory_len ~grid mt
                   srcs)
                  .Sim_result.outputs))
    | Opm_adaptive ->
        let sys, srcs = Mna.stamp_linear ?outputs net in
        let result, stats =
          with_state_names sys.Descriptor.state_names (fun () ->
              Adaptive.solve ~tol ?health ?budget ~t_end sys srcs)
        in
        Logs.info (fun k ->
            k "adaptive: %d steps, %d rejected, %d factorisations"
              stats.Adaptive.accepted stats.Adaptive.rejected
              stats.Adaptive.factorizations);
        result.Sim_result.outputs
    | Be | Trap | Gear ->
        let scheme =
          match method_ with
          | Be -> Stepper.Backward_euler
          | Trap -> Stepper.Trapezoidal
          | Gear | Opm_method | Opm_adaptive | Fft | Gl | Exact ->
              Stepper.Gear2
        in
        let sys, srcs = Mna.stamp_linear ?outputs net in
        Stepper.solve ~scheme ~h:(t_end /. float_of_int steps) ~t_end sys srcs
    | Exact ->
        let sys, srcs = Mna.stamp_linear ?outputs net in
        Exact_lti.solve ~h:(t_end /. float_of_int steps) ~t_end sys srcs
    | Fft -> (
        match Mna.stamp_fractional ?outputs net with
        | Some (sys, alpha, srcs) ->
            Freq_domain.solve ~n_samples:steps ~alpha ~t_end sys srcs
        | None ->
            let sys, srcs = Mna.stamp_linear ?outputs net in
            Freq_domain.solve ~n_samples:steps ~alpha:1.0 ~t_end sys srcs)
    | Gl -> (
        match Mna.stamp_fractional ?outputs net with
        | Some (sys, alpha, srcs) ->
            Grunwald.solve ~h:(t_end /. float_of_int steps) ~alpha ~t_end sys srcs
        | None -> failwith "gl needs a purely fractional netlist (single CPE order)")
  in
  (* the OPM paths record into [health] column by column inside the
     engine; the baseline steppers know nothing about it, so give them a
     post-hoc NaN/Inf scan of the produced waveform instead *)
  (match (health, method_) with
  | Some h, (Be | Trap | Gear | Fft | Gl | Exact) ->
      for c = 0 to Opm_signal.Waveform.channel_count waveform - 1 do
        Health.record_vec h (Opm_signal.Waveform.channel waveform c)
      done
  | _ -> ());
  Opm_signal.Waveform.print_csv waveform

let run_ac net outputs fstart fstop points =
  let sys, srcs = Mna.stamp_linear ?outputs net in
  if Descriptor.input_count sys = 0 then failwith "ac needs at least one source";
  ignore srcs;
  let two_pi = 2.0 *. Float.pi in
  let pts =
    Ac.sweep ~omega_min:(two_pi *. fstart) ~omega_max:(two_pi *. fstop) ~points
      sys
  in
  (* one gain/phase pair per output, against input 0 *)
  let q = Descriptor.output_count sys in
  print_string "freq_hz";
  for o = 0 to q - 1 do
    Printf.printf ",gain_db_%d,phase_deg_%d" o o
  done;
  print_newline ();
  List.iter
    (fun pt ->
      Printf.printf "%.9g" (pt.Ac.omega /. two_pi);
      for o = 0 to q - 1 do
        Printf.printf ",%.6g,%.6g"
          (Ac.gain_db pt ~input:0 ~output:o)
          (Ac.phase_deg pt ~input:0 ~output:o)
      done;
      print_newline ())
    pts

let run_dc net outputs =
  (* the DC point ignores every differential term (d^α x = 0 in steady
     state for all α), so any netlist — fractional included — reduces
     to the algebraic part of the general stamp *)
  let mt, srcs = Mna.stamp ?outputs net in
  let n = Multi_term.order mt in
  let sys =
    Descriptor.make ~state_names:mt.Multi_term.state_names
      ~output_names:mt.Multi_term.output_names
      ~e:(Opm_sparse.Csr.zero ~rows:n ~cols:n)
      ~a:mt.Multi_term.a ~b:mt.Multi_term.b ~c:mt.Multi_term.c ()
  in
  let u0 = Array.map (fun s -> Opm_signal.Source.eval s 0.0) srcs in
  let y = Dc.outputs_at sys ~u0 in
  Array.iteri
    (fun i name -> Printf.printf "%s = %.9g\n" name y.(i))
    sys.Descriptor.output_names

let pp_pole z =
  if Float.abs z.Complex.im < 1e-9 *. Float.abs z.Complex.re then
    Printf.printf "  %.6g\n" z.Complex.re
  else Printf.printf "  %.6g %+.6gi\n" z.Complex.re z.Complex.im

let run_poles net =
  match Mna.stamp_fractional net with
  | Some (sys, alpha, _) ->
      (* fractional pencil: the eigenvalues live in the s^α plane;
         stability by Matignon's angle criterion *)
      let poles = Poles.of_descriptor ~shift:(-1.0) sys in
      Printf.printf "%d finite pole(s) of the order-%g pencil (λ = s^%g):\n"
        (Array.length poles) alpha alpha;
      Array.iter pp_pole poles;
      let stable =
        Array.for_all (Poles.fractional_stability_angle ~alpha) poles
      in
      Printf.printf "stable (Matignon, |arg λ| > %gπ/2): %b\n" alpha stable
  | None ->
      let sys, _ = Mna.stamp_linear net in
      let poles = Poles.of_descriptor ~shift:(-1.0) sys in
      Printf.printf "%d finite pole(s):\n" (Array.length poles);
      Array.iter pp_pole poles;
      Printf.printf "stable: %b\n" (Poles.is_stable ~shift:(-1.0) sys)

(* OPOM-style response-model export: compile the plant once, then
   answer one query per input — a unit step at t = 0, or the BPF
   impulse (mass 1/h concentrated in the first interval, fed through
   the raw-coefficient query).  The CSV has one column per
   output × input pair, which is exactly the step-response model
   matrix an OPOM/MPC layer consumes; every column reuses the single
   pencil factorisation made at compile time. *)
let run_response ~kind net outputs t_end steps =
  let module Mat = Opm_numkit.Mat in
  let t_end =
    match t_end with
    | Some t -> t
    | None -> failwith "response analysis needs --tend"
  in
  let mt, _ = Mna.stamp ?outputs net in
  let grid = Grid.uniform ~t_end ~m:steps in
  let p = mt.Multi_term.b.Mat.cols in
  if p = 0 then failwith "response analysis needs at least one source";
  with_state_names mt.Multi_term.state_names @@ fun () ->
  let model = Compiled_model.compile ~grid mt in
  let q = Array.length mt.Multi_term.output_names in
  let h = t_end /. float_of_int steps in
  (* responses.(i).(o) is output o's trace under input i's excitation *)
  let responses =
    Array.init p (fun i ->
        match kind with
        | `Step ->
            let srcs =
              Array.init p (fun j ->
                  if i = j then
                    Opm_signal.Source.Step { amplitude = 1.0; delay = 0.0 }
                  else Opm_signal.Source.Dc 0.0)
            in
            let r = Compiled_model.solve model srcs in
            Array.init q (Opm_signal.Waveform.channel r.Sim_result.outputs)
        | `Impulse ->
            let u =
              Mat.init p steps (fun r c ->
                  if r = i && c = 0 then 1.0 /. h else 0.0)
            in
            let y = Mat.mul mt.Multi_term.c (Compiled_model.solve_coeffs model u) in
            Array.init q (fun o -> Array.init steps (Mat.get y o)))
  in
  let times = Opm_signal.Waveform.bpf_grid ~t_end ~m:steps in
  print_string "time";
  for i = 0 to p - 1 do
    Array.iter
      (fun name -> Printf.printf ",%s_u%d" name i)
      mt.Multi_term.output_names
  done;
  print_newline ();
  Array.iteri
    (fun k t ->
      Printf.printf "%.9g" t;
      for i = 0 to p - 1 do
        for o = 0 to q - 1 do
          Printf.printf ",%.9g" responses.(i).(o).(k)
        done
      done;
      print_newline ())
    times

let mode_name = function
  | Tran -> "tran"
  | Ac_mode -> "ac"
  | Dc_mode -> "dc"
  | Poles_mode -> "poles"
  | Step_mode -> "step-response"
  | Impulse_mode -> "impulse-response"

(* Flush the requested observability outputs after a run: metrics dump
   and span profile to stderr, Chrome trace and merged report to
   files. *)
let emit_observability ?resilience ~metrics ~trace ~report ~run_params health
    =
  if metrics then begin
    Printf.eprintf "%s%!" (Metrics.to_text ());
    if Trace.span_count () > 0 then
      Printf.eprintf "\n%s%!" (Trace.to_profile_string ())
  end;
  (match trace with
  | Some file -> Opm_obs.Json.to_file file (Trace.to_chrome_json ())
  | None -> ());
  match report with
  | Some file ->
      let health = Option.map Health.to_json health in
      Opm_obs.Json.to_file file
        (Opm_obs.Report.make ?health ?resilience ~run:run_params ())
  | None -> ()

(* Flag validation (exit 2, one line on stderr): every value-range and
   path problem is caught here, before any netlist parsing or solver
   work, so a bad invocation can never produce a partial run. *)
let validate_flags ~mode ~method_ ~steps ~window ~memory_len ~basis ~domains
    ~checkpoint ~resume ~checkpoint_every ~deadline ~max_factors ~max_heap
    ~fault =
  if steps <= 0 then usage "--steps must be positive (got %d)" steps;
  (match window with
  | Some w when w <= 0 -> usage "--window must be positive (got %d)" w
  | _ -> ());
  (if basis = `Spectral && window <> None then
     usage
       "--basis spectral has no windowed form (the collocation operator is \
        globally dense); drop --window");
  (match memory_len with
  | Some k when k <= 0 -> usage "--memory-len must be positive (got %d)" k
  | _ -> ());
  (match domains with
  | Some d when d <= 0 -> usage "--domains must be positive (got %d)" d
  | _ -> ());
  if checkpoint_every <= 0 then
    usage "--checkpoint-every must be positive (got %d)" checkpoint_every;
  (match deadline with
  | Some s when s <= 0.0 -> usage "--deadline must be positive (got %g)" s
  | _ -> ());
  (match max_factors with
  | Some k when k <= 0 -> usage "--max-factors must be positive (got %d)" k
  | _ -> ());
  (match max_heap with
  | Some mb when mb <= 0.0 -> usage "--max-heap must be positive (got %g)" mb
  | _ -> ());
  (match checkpoint with
  | Some path ->
      let dir = Filename.dirname path in
      if not (Sys.file_exists dir && Sys.is_directory dir) then
        usage "--checkpoint %s: directory %s does not exist" path dir
  | None -> ());
  (match resume with
  | Some path ->
      if not (Sys.file_exists path) then
        usage "--resume %s: no such file" path
  | None -> ());
  (if checkpoint <> None || resume <> None then
     match (mode, method_, window) with
     | Tran, Opm_method, Some _ -> ()
     | Tran, Opm_method, None ->
         usage "--checkpoint/--resume require --window (windowed opm solve)"
     | _ ->
         usage
           "--checkpoint/--resume apply only to the windowed opm transient");
  match fault with
  | None -> (
      match Fault.arm_from_env () with
      | Ok _ -> ()
      | Error msg -> usage "OPM_FAULT_PLAN: %s" msg)
  | Some plan -> (
      match Fault.plan_of_string plan with
      | Ok p -> Fault.arm p
      | Error msg -> usage "--fault %s: %s" plan msg)

let run netlist_path mode t_end steps method_ probes tol window memory_len
    basis fstart fstop points domains check strict metrics
    trace report checkpoint resume checkpoint_every deadline max_factors
    max_heap fault =
  try
    validate_flags ~mode ~method_ ~steps ~window ~memory_len ~basis ~domains
      ~checkpoint ~resume ~checkpoint_every ~deadline ~max_factors ~max_heap
      ~fault;
    (match domains with
    | Some d -> Opm_parallel.Pool.set_default_domains d
    | None -> ());
    if metrics || report <> None then Metrics.set_enabled true;
    if trace <> None || report <> None then Trace.set_enabled true;
    let budget =
      if deadline <> None || max_factors <> None || max_heap <> None then
        Some
          (Budget.create ?deadline_s:deadline ?max_factors
             ?max_heap_mb:max_heap ())
      else None
    in
    let net = Parser.parse_file netlist_path in
    let outputs =
      match probes with
      | [] -> None
      | ps -> Some (List.map (fun p -> Mna.Node_voltage p) ps)
    in
    let health =
      if (check || strict || report <> None) && mode = Tran then
        Some (Health.create ())
      else None
    in
    (match mode with
    | Tran ->
        run_tran ?health ?budget ?checkpoint ~checkpoint_every
          ?resume_from:resume ?window ?memory_len ~basis net outputs
          t_end steps method_ tol
    | Ac_mode -> run_ac net outputs fstart fstop points
    | Dc_mode -> run_dc net outputs
    | Poles_mode -> run_poles net
    | Step_mode -> run_response ~kind:`Step net outputs t_end steps
    | Impulse_mode -> run_response ~kind:`Impulse net outputs t_end steps);
    let run_params =
      Opm_obs.Json.
        [
          ("command", String "opm_sim");
          ("netlist", String netlist_path);
          ("mode", String (mode_name mode));
          ("steps", Int steps);
          ( "t_end",
            match t_end with Some t -> Float t | None -> Null );
        ]
    in
    let resilience =
      if
        fault <> None || budget <> None || checkpoint <> None
        || resume <> None
        || Fault.armed () <> None
      then
        Some
          Opm_obs.Json.(
            Obj
              [
                ("fault", Fault.stats_json ());
                ( "budget",
                  match budget with
                  | Some b -> Budget.to_json b
                  | None -> Null );
                ( "checkpoint",
                  Obj
                    [
                      ( "path",
                        match checkpoint with
                        | Some p -> String p
                        | None -> Null );
                      ( "resumed_from",
                        match resume with
                        | Some p -> String p
                        | None -> Null );
                    ] );
              ])
      else None
    in
    emit_observability ?resilience ~metrics ~trace ~report ~run_params health;
    match health with
    | None -> 0
    | Some h ->
        if check then Printf.eprintf "%s\n%!" (Health.to_string h);
        if strict && Health.warnings h <> [] then begin
          if not check then Printf.eprintf "%s\n%!" (Health.to_string h);
          3
        end
        else 0
  with
  | Usage msg ->
      Printf.eprintf "opm_sim: %s\n" msg;
      2
  | Interrupted_exit -> 4
  | Parser.Parse_error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" netlist_path line message;
      1
  | Opm_error.Error
      ((Opm_error.Deadline_exceeded _ | Opm_error.Budget_exhausted _) as e)
    ->
      (* a budget breach on a non-windowed path has no partial prefix to
         print, but it is still an orderly interruption, not a failure *)
      Printf.eprintf "opm_sim: interrupted: %s\n" (Opm_error.to_string e);
      4
  | Opm_error.Error e ->
      Printf.eprintf "error: %s\n" (Opm_error.to_string e);
      1
  | Invalid_argument m | Failure m ->
      Printf.eprintf "error: %s\n" m;
      1
  | Opm_numkit.Lu.Singular _ | Opm_sparse.Slu.Singular _ ->
      Printf.eprintf
        "error: singular system matrix — the exact method needs an \
         invertible E (no voltage sources / algebraic constraints), and \
         DC needs a unique operating point\n";
      1

let cmd =
  let doc = "operational-matrix circuit simulator" in
  let info = Cmd.info "opm_sim" ~version:"1.0.0" ~doc in
  Cmd.v info
    Term.(
      const run $ netlist_arg $ mode_arg $ t_end_arg $ steps_arg $ method_arg
      $ probes_arg $ tol_arg $ window_arg $ memory_len_arg $ basis_arg
      $ fstart_arg $ fstop_arg $ points_arg $ domains_arg
      $ check_arg $ strict_arg $ metrics_arg $ trace_arg $ report_arg
      $ checkpoint_arg $ resume_arg $ checkpoint_every_arg $ deadline_arg
      $ max_factors_arg $ max_heap_arg $ fault_arg)

let () =
  Logs.set_reporter (Logs.format_reporter ());
  exit (Cmd.eval' cmd)
