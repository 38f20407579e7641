(* Benchmark harness: regenerates every table of the paper's evaluation
   section plus the design-choice ablations documented in DESIGN.md.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- table1       # paper Table I
     dune exec bench/main.exe -- table2 [--nx N --ny N --nz N --loads K]
     dune exec bench/main.exe -- table2 --paper   # 75 K / 110 K instance
     dune exec bench/main.exe -- ablation-basis
     dune exec bench/main.exe -- ablation-adaptive
     dune exec bench/main.exe -- ablation-kron
     dune exec bench/main.exe -- fft-sweep
     dune exec bench/main.exe -- parallel-sweep [--domains N]
     dune exec bench/main.exe -- window-scaling
     dune exec bench/main.exe -- rhs-conv     # FFT history crossover
     dune exec bench/main.exe -- basis        # spectral vs BPF crossover
     dune exec bench/main.exe -- compiled-qps # factor-once query throughput
     dune exec bench/main.exe -- serve        # HTTP daemon req/s + p99
     dune exec bench/main.exe -- resilience   # fault matrix + kill/resume
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks

   [--domains N] (any command) sets the domain-pool size, like
   OPM_DOMAINS=N. *)

open Opm_numkit
open Opm_basis
open Opm_signal
open Opm_core
open Opm_circuit
open Opm_transient
open Opm_analysis
module Json = Opm_obs.Json
module Metrics = Opm_obs.Metrics
module Fault = Opm_robust.Fault
module Budget = Opm_robust.Budget
module Opm_error = Opm_robust.Opm_error
module Csr = Opm_sparse.Csr
module Slu = Opm_sparse.Slu

(* ------------------------------------------------------------------ *)
(* machine-readable output (--json): the table commands additionally
   write BENCH_<table>.json — one row per (method, size) measurement
   plus a metrics snapshot — in the "opm-bench-v1" schema validated by
   bench/validate.ml. [--smoke] shrinks the workloads for CI;
   [--json-out FILE] overrides the default output path.               *)

let json_mode = ref false

let smoke_mode = ref false

let json_out : string option ref = ref None

let bench_schema = "opm-bench-v1"

let json_rows : Json.t list ref = ref []

let add_row ?(extra = []) ~method_ ~n ~m ~wall_s ~error_db () =
  if !json_mode then
    json_rows :=
      Json.Obj
        ([
           ("method", Json.String method_);
           ("n", Json.Int n);
           ("m", Json.Int m);
           ("wall_s", Json.Float wall_s);
           ("error_db", Json.Float error_db);
         ]
        @ extra)
      :: !json_rows

let flush_json ~table ~default_file =
  if !json_mode then begin
    let doc =
      Json.Obj
        [
          ("schema", Json.String bench_schema);
          ("table", Json.String table);
          ("smoke", Json.Bool !smoke_mode);
          ("rows", Json.List (List.rev !json_rows));
          ("metrics", Metrics.snapshot ());
        ]
    in
    let file = Option.value !json_out ~default:default_file in
    Json.to_file file doc;
    json_rows := [];
    Printf.eprintf "bench: wrote %s\n%!" file
  end

(* ------------------------------------------------------------------ *)
(* timing helpers                                                      *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (Unix.gettimeofday () -. t0, result)

(* best-of-n wall time: robust against scheduler noise *)
let timed ?(runs = 3) f =
  let result = ref None in
  let best = ref infinity in
  for _ = 1 to runs do
    let t, r = wall f in
    if t < !best then best := t;
    result := Some r
  done;
  match !result with Some r -> (!best, r) | None -> assert false

let pp_time seconds =
  if seconds < 1e-3 then Printf.sprintf "%.1f µs" (seconds *. 1e6)
  else if seconds < 1.0 then Printf.sprintf "%.2f ms" (seconds *. 1e3)
  else Printf.sprintf "%.2f s" seconds

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let rule () = print_endline (String.make 72 '-')

(* ------------------------------------------------------------------ *)
(* Table I — fractional transmission line, OPM vs FFT-1/FFT-2          *)

let table1 () =
  header "Table I — fractional t-line (alpha = 1/2, n = 7, T = 2.7 ns, m = 8)";
  let sys = Tline.model () in
  let srcs = Tline.inputs () in
  let t_end = Tline.t_end and alpha = Tline.alpha in
  let grid8 = Grid.uniform ~t_end ~m:8 in
  let t_opm, opm =
    timed (fun () -> Opm.simulate_fractional ~grid:grid8 ~alpha sys srcs)
  in
  let t_fft1, fft1 =
    timed (fun () -> Freq_domain.solve ~n_samples:8 ~alpha ~t_end sys srcs)
  in
  let t_fft2, fft2 =
    timed (fun () -> Freq_domain.solve ~n_samples:100 ~alpha ~t_end sys srcs)
  in
  (* the paper's eq. (30): FFT error measured against OPM *)
  let err w = Error.waveform_error_db ~reference:opm.Sim_result.outputs w in
  Printf.printf "%-8s  %12s  %16s   %s\n" "Method" "CPU time" "Rel. error (dB)"
    "paper: time / err";
  rule ();
  Printf.printf "%-8s  %12s  %16s   %s\n" "FFT-1" (pp_time t_fft1)
    (Printf.sprintf "%.1f" (err fft1))
    "6.09 ms / -29.2 dB";
  Printf.printf "%-8s  %12s  %16s   %s\n" "FFT-2" (pp_time t_fft2)
    (Printf.sprintf "%.1f" (err fft2))
    "40.7 ms / -46.5 dB";
  Printf.printf "%-8s  %12s  %16s   %s\n" "OPM" (pp_time t_opm) "(reference)"
    "3.56 ms / --";
  rule ();
  let shape_ok = err fft2 < err fft1 && t_opm < t_fft2 in
  Printf.printf
    "shape check: FFT-2 more accurate than FFT-1 and OPM cheapest: %s\n"
    (if shape_ok then "HOLDS" else "VIOLATED");
  (* independent accuracy yardstick: a fine OPM reference *)
  let m_fine = if !smoke_mode then 128 else 512 in
  let fine =
    Opm.simulate_fractional ~grid:(Grid.uniform ~t_end ~m:m_fine) ~alpha sys
      srcs
  in
  let vs_fine w =
    Error.waveform_error_db ~reference:fine.Sim_result.outputs w
  in
  Printf.printf
    "vs fine OPM (m = %d): OPM-8 %.1f dB, FFT-1 %.1f dB, FFT-2 %.1f dB\n"
    m_fine
    (vs_fine opm.Sim_result.outputs)
    (vs_fine fft1) (vs_fine fft2);
  let n = Descriptor.order sys in
  add_row ~method_:"fft-1" ~n ~m:8 ~wall_s:t_fft1 ~error_db:(vs_fine fft1) ();
  add_row ~method_:"fft-2" ~n ~m:100 ~wall_s:t_fft2 ~error_db:(vs_fine fft2) ();
  add_row ~method_:"opm" ~n ~m:8 ~wall_s:t_opm
    ~error_db:(vs_fine opm.Sim_result.outputs) ();
  flush_json ~table:"table1" ~default_file:"BENCH_table1.json"

(* ------------------------------------------------------------------ *)
(* Table II — 3-D power grid: OPM (2nd-order NA) vs b-Euler/Gear/trap  *)

type grid_cli = { nx : int; ny : int; nz : int; loads : int; paper : bool }

let default_cli = { nx = 12; ny = 12; nz = 4; loads = 8; paper = false }

let paper_cli =
  let s = Power_grid.paper_spec in
  {
    nx = s.Power_grid.nx;
    ny = s.Power_grid.ny;
    nz = s.Power_grid.nz;
    loads = s.Power_grid.load_count;
    paper = true;
  }

(* symbolic-reuse accounting: [pencils] = fresh analyses + numeric-only
   refactorisations performed inside [f]; the table2 gate in
   validate.ml requires symbolic_reuse >= pencils - 1 on every row (one
   sparsity structure pays its symbolic analysis exactly once) *)
let c_slu_analyze = Metrics.counter "slu.analyze"

let c_slu_reuse = Metrics.counter "slu.symbolic_reuse"

let with_slu_counts f =
  let a0 = Metrics.counter_value c_slu_analyze
  and r0 = Metrics.counter_value c_slu_reuse in
  let r = f () in
  let reuse = Metrics.counter_value c_slu_reuse - r0 in
  let pencils = Metrics.counter_value c_slu_analyze - a0 + reuse in
  (r, pencils, reuse)

let slu_extra ~pencils ~reuse =
  [ ("pencils", Json.Int pencils); ("symbolic_reuse", Json.Int reuse) ]

let table2 cli =
  let spec =
    {
      Power_grid.default_spec with
      nx = cli.nx;
      ny = cli.ny;
      nz = cli.nz;
      load_count = cli.loads;
    }
  in
  header
    (Printf.sprintf
       "Table II — 3-D power grid %dx%dx%d (NA n = %d, MNA n = %d; paper: 75 K / 110 K)"
       spec.Power_grid.nx spec.Power_grid.ny spec.Power_grid.nz
       (Power_grid.na_unknowns spec)
       (Power_grid.mna_unknowns spec));
  let net = Power_grid.generate spec in
  let probe =
    [
      Mna.Node_voltage (Power_grid.node_name ~x:0 ~y:0 ~z:0);
      Mna.Node_voltage
        (Power_grid.node_name ~x:(spec.Power_grid.nx / 2)
           ~y:(spec.Power_grid.ny / 2) ~z:0);
    ]
  in
  let na_sys, na_srcs = Na2.stamp ~outputs:probe net in
  let mna_sys, mna_srcs = Mna.stamp_linear ~outputs:probe net in
  let t_end = 1e-9 in
  let h0 = 10e-12 in
  (* one symbolic analysis serves every classical-method iteration
     matrix of the whole table: the stepper pencils all carry the E/A
     union sparsity pattern, so everything after the reference run is a
     numeric-only refactorisation *)
  let stepper_sym = ref None in
  (* reference: trapezoidal on the MNA DAE at h/20 (h/5 at the paper
     size, where a 2000-step reference would dominate the table) *)
  let ref_div = if cli.paper then 5.0 else 20.0 in
  let reference =
    Stepper.solve ~symbolic:stepper_sym ~scheme:Stepper.Trapezoidal
      ~h:(h0 /. ref_div) ~t_end mna_sys mna_srcs
  in
  let err w = Error.average_relative_error_db ~reference w in
  let n_mna = Descriptor.order mna_sys in
  let steps_of h = int_of_float (Float.round (t_end /. h)) in
  Printf.printf "%-12s %-8s %12s %18s   %s\n" "Method" "Step" "Runtime"
    "Avg rel err (dB)" "paper: runtime / err";
  rule ();
  let be_row h paper =
    let (t, w), pencils, reuse =
      with_slu_counts (fun () ->
          timed ~runs:1 (fun () ->
              Stepper.solve ~symbolic:stepper_sym
                ~scheme:Stepper.Backward_euler ~h ~t_end mna_sys mna_srcs))
    in
    Printf.printf "%-12s %-8s %12s %18.1f   %s\n" "b-Euler"
      (Printf.sprintf "%g ps" (h *. 1e12))
      (pp_time t) (err w) paper;
    add_row
      ~extra:(slu_extra ~pencils ~reuse)
      ~method_:(Printf.sprintf "b-euler@%gps" (h *. 1e12))
      ~n:n_mna ~m:(steps_of h) ~wall_s:t ~error_db:(err w) ();
    (t, err w)
  in
  let t_be10, e_be10 = be_row 10e-12 "334.7 s / -91 dB" in
  let _t_be5, e_be5 = be_row 5e-12 "691.7 s / -92 dB" in
  let t_be1, e_be1 = be_row 1e-12 "3198 s / -127 dB" in
  let (t_gear, w_gear), pencils_gear, reuse_gear =
    with_slu_counts (fun () ->
        timed ~runs:1 (fun () ->
            Stepper.solve ~symbolic:stepper_sym ~scheme:Stepper.Gear2 ~h:h0
              ~t_end mna_sys mna_srcs))
  in
  let e_gear = err w_gear in
  Printf.printf "%-12s %-8s %12s %18.1f   %s\n" "Gear" "10 ps" (pp_time t_gear)
    e_gear "359.1 s / -134 dB";
  add_row
    ~extra:(slu_extra ~pencils:pencils_gear ~reuse:reuse_gear)
    ~method_:"gear" ~n:n_mna ~m:(steps_of h0) ~wall_s:t_gear ~error_db:e_gear ();
  let (t_trap, w_trap), pencils_trap, reuse_trap =
    with_slu_counts (fun () ->
        timed ~runs:1 (fun () ->
            Stepper.solve ~symbolic:stepper_sym ~scheme:Stepper.Trapezoidal
              ~h:h0 ~t_end mna_sys mna_srcs))
  in
  let e_trap = err w_trap in
  Printf.printf "%-12s %-8s %12s %18.1f   %s\n" "Trapezoidal" "10 ps"
    (pp_time t_trap) e_trap "347.2 s / -137 dB";
  add_row
    ~extra:(slu_extra ~pencils:pencils_trap ~reuse:reuse_trap)
    ~method_:"trap" ~n:n_mna ~m:(steps_of h0) ~wall_s:t_trap ~error_db:e_trap ();
  let m = int_of_float (Float.round (t_end /. h0)) in
  let (t_opm, r_opm), pencils_opm, reuse_opm =
    with_slu_counts (fun () ->
        timed ~runs:1 (fun () ->
            Opm.simulate_multi_term ~grid:(Grid.uniform ~t_end ~m) na_sys
              na_srcs))
  in
  let e_opm = err r_opm.Sim_result.outputs in
  Printf.printf "%-12s %-8s %12s %18.1f   %s\n" "OPM (NA)" "10 ps"
    (pp_time t_opm) e_opm "314.6 s / --";
  add_row
    ~extra:(slu_extra ~pencils:pencils_opm ~reuse:reuse_opm)
    ~method_:"opm-na" ~n:(Multi_term.order na_sys) ~m ~wall_s:t_opm
    ~error_db:e_opm ();
  (* adaptive grid with pairwise-distinct steps: ⌈m⌉ distinct pencils,
     all sharing one sparsity structure — the row that exercises the
     paper-scale factor split (symbolic_reuse = pencils − 1) *)
  let m_jitter = if !smoke_mode then 24 else 48 in
  let steps_j =
    let base = t_end /. float_of_int m_jitter in
    Array.init m_jitter (fun k ->
        base *. (1.0 +. (1e-4 *. float_of_int (k + 1))))
  in
  let (t_j, r_j), pencils_j, reuse_j =
    with_slu_counts (fun () ->
        timed ~runs:1 (fun () ->
            Opm.simulate_multi_term ~grid:(Grid.adaptive steps_j) na_sys
              na_srcs))
  in
  let e_j = err r_j.Sim_result.outputs in
  Printf.printf "%-12s %-8s %12s %18.1f   %s\n" "OPM (adpt)"
    (Printf.sprintf "%d st" m_jitter)
    (pp_time t_j) e_j
    (Printf.sprintf "(%d pencils, %d reused)" pencils_j reuse_j);
  add_row
    ~extra:(slu_extra ~pencils:pencils_j ~reuse:reuse_j)
    ~method_:"opm-na-adaptive" ~n:(Multi_term.order na_sys) ~m:m_jitter
    ~wall_s:t_j ~error_db:e_j ();
  (* domain-sharded batched back-solves on the backward-Euler factors;
     the accuracy cell is the agreement with the sequential map, clamped
     at −300 dB (= bit-identical) *)
  let nb = 32 in
  let (t_batch, db_batch), pencils_b, reuse_b =
    with_slu_counts (fun () ->
        let lhs =
          Csr.add ~alpha:(1.0 /. h0) ~beta:(-1.0) mna_sys.Descriptor.e
            mna_sys.Descriptor.a
        in
        let f = Slu.factor lhs in
        let bs =
          Array.init nb (fun j ->
              Array.init n_mna (fun i ->
                  if (i + j) mod 101 = 0 then 1e-3 else 0.0))
        in
        let seq = Array.map (Slu.solve f) bs in
        let t, par = wall (fun () -> Slu.solve_many f bs) in
        let flat a = Array.concat (Array.to_list a) in
        let db =
          Float.max (-300.0)
            (Error.relative_error_db ~reference:(flat seq) (flat par))
        in
        (t, db))
  in
  Printf.printf "%-12s %-8s %12s %18.1f   %s\n" "batch-solve"
    (Printf.sprintf "%d rhs" nb)
    (pp_time t_batch) db_batch "(vs sequential map; -300 = bit-equal)";
  add_row
    ~extra:(slu_extra ~pencils:pencils_b ~reuse:reuse_b)
    ~method_:"backsolve-batch" ~n:n_mna ~m:nb ~wall_s:t_batch
    ~error_db:db_batch ();
  flush_json ~table:"table2" ~default_file:"BENCH_table2.json";
  rule ();
  let shape1 = e_be10 > e_trap && e_be10 > e_gear in
  let shape2 = e_be1 < e_be10 && e_be5 < e_be10 in
  (* at the paper's 110 K unknowns the per-step cost dominates and the
     10x step count shows as ~10x runtime; at our scaled size the
     one-time factorisation (~40 ms) amortises much less, so we check
     only that the runtime grows materially with the step count *)
  let shape3 = t_be1 > 2.0 *. t_be10 in
  let shape4 = t_opm < 3.0 *. t_trap in
  Printf.printf "shape checks (paper's qualitative claims):\n";
  Printf.printf "  b-Euler(10ps) least accurate of the 10ps rows: %s\n"
    (if shape1 then "HOLDS" else "VIOLATED");
  Printf.printf "  b-Euler improves as h shrinks:                 %s\n"
    (if shape2 then "HOLDS" else "VIOLATED");
  Printf.printf "  b-Euler(1ps) >> b-Euler(10ps) runtime:         %s\n"
    (if shape3 then "HOLDS" else "VIOLATED");
  Printf.printf "  OPM runtime on par with trap/Gear at 10ps:     %s\n"
    (if shape4 then "HOLDS" else "VIOLATED");
  ignore e_opm

(* ------------------------------------------------------------------ *)
(* Ablation: basis choice (BPF triangular vs Walsh/Haar similarity)    *)

(* the generic column engine on one order-1 differential term with an
   explicit D (naive history scan, dense LU) *)
let column_solve (sys : Descriptor.t) d bu =
  Engine.solve
    (Engine.prepare Engine.default
       (Engine.pencil `Dense [ sys.Descriptor.e; sys.Descriptor.a ])
       (Engine.triangular ~orders:[ 1.0 ] [ d ]))
    bu

let ablation_basis () =
  header "Ablation — basis functions (paper §I: BPF vs Walsh vs Haar)";
  let input = Source.Step { amplitude = 1.0; delay = 0.0 } in
  let net = Generators.rc_ladder ~sections:4 ~input () in
  let sys, srcs = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "n4" ] net in
  let t_end = 2e-5 and m = 64 in
  let grid = Grid.uniform ~t_end ~m in
  let e = Descriptor.e_dense sys and a = Descriptor.a_dense sys in
  let u = Opm.input_coefficients ~grid srcs in
  let bu = Mat.mul sys.Descriptor.b u in
  (* BPF: the triangular structure admits the fast column solver *)
  let d_bpf = Block_pulse.differential_matrix grid in
  let t_bpf, x_bpf =
    timed (fun () -> column_solve sys d_bpf bu)
  in
  (* Walsh: the similarity-transported D is dense, so only the full
     Kronecker solve applies — same answer, triangularity lost *)
  let w = Walsh.walsh_matrix m in
  let w_inv = Mat.scale (1.0 /. float_of_int m) (Mat.transpose w) in
  let d_walsh = Walsh.differential_matrix grid in
  let bu_walsh = Mat.mul bu (Mat.transpose w_inv) in
  let t_walsh, x_walsh =
    timed ~runs:1 (fun () ->
        Engine.solve_dense_kron ~terms:[ (e, d_walsh) ] ~a ~bu:bu_walsh)
  in
  let x_walsh_back = Mat.mul x_walsh (Mat.transpose w) in
  Printf.printf "%-22s %12s   (D_bpf upper triangular: %b)\n" "basis"
    "solve time"
    (Mat.is_upper_triangular ~tol:1e-12 d_bpf);
  rule ();
  Printf.printf "%-22s %12s   (column-by-column solver)\n" "block-pulse"
    (pp_time t_bpf);
  Printf.printf "%-22s %12s   (Kronecker solver; D_W dense)\n"
    "walsh (same solution)" (pp_time t_walsh);
  Printf.printf "agreement walsh vs bpf: %.2g (coefficient max diff)\n"
    (Mat.max_abs_diff x_walsh_back x_bpf);
  (* the Walsh selling point: low-sequency truncation keeps the trend *)
  let y = Mat.row (Mat.mul sys.Descriptor.c x_bpf) 0 in
  Printf.printf "\nspectral truncation of the output (keep k of %d):\n" m;
  Printf.printf "%-8s %18s %18s\n" "keep" "walsh err (dB)" "haar err (dB)";
  rule ();
  List.iter
    (fun keep ->
      let cw = Walsh.bpf_to_walsh y in
      let walsh_trend = Walsh.walsh_to_bpf (Walsh.truncate_spectrum ~keep cw) in
      let ch = Haar.transform y in
      let ch_t = Array.mapi (fun i v -> if i < keep then v else 0.0) ch in
      let haar_trend = Haar.inverse_transform ch_t in
      Printf.printf "%-8d %18.1f %18.1f\n" keep
        (Error.relative_error_db ~reference:y walsh_trend)
        (Error.relative_error_db ~reference:y haar_trend))
    (* at powers of two the spans of the first k Walsh and Haar functions
       coincide (both = piecewise constants on k dyadic intervals), so
       the interesting comparison points are the non-powers *)
    [ 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64 ]

(* ------------------------------------------------------------------ *)
(* Ablation: adaptive vs uniform time step (paper §III-B)              *)

let ablation_adaptive () =
  header "Ablation — adaptive vs uniform step (two-time-scale RC)";
  let input = Source.Step { amplitude = 1.0; delay = 0.0 } in
  let net = Generators.rc_two_time_scale ~input () in
  let sys, srcs =
    Mna.stamp_linear
      ~outputs:[ Mna.Node_voltage "fast"; Mna.Node_voltage "slow" ] net
  in
  let t_end = 5e-4 in
  (* gold reference: trapezoidal at a very fine step (an OPM reference at
     matching accuracy would need a dense m² operational matrix) *)
  let reference =
    Stepper.solve ~scheme:Stepper.Trapezoidal ~h:(t_end /. 200000.0) ~t_end sys
      srcs
  in
  Printf.printf "%-26s %10s %12s %14s\n" "run" "steps" "runtime" "err (dB)";
  rule ();
  List.iter
    (fun m ->
      let t, r =
        timed ~runs:1 (fun () ->
            Opm.simulate_linear ~grid:(Grid.uniform ~t_end ~m) sys srcs)
      in
      Printf.printf "%-26s %10d %12s %14.1f\n"
        (Printf.sprintf "uniform m=%d" m)
        m (pp_time t)
        (Error.waveform_error_db ~reference r.Sim_result.outputs))
    [ 100; 1000; 10000 ];
  List.iter
    (fun tol ->
      let t, (r, stats) =
        timed ~runs:1 (fun () ->
            Adaptive.solve ~tol ~h_init:1e-7 ~t_end sys srcs)
      in
      Printf.printf "%-26s %10d %12s %14.1f   (%d rejected, %d LU)\n"
        (Printf.sprintf "adaptive OPM tol=%g" tol)
        stats.Adaptive.accepted (pp_time t)
        (Error.waveform_error_db ~reference r.Sim_result.outputs)
        stats.Adaptive.rejected stats.Adaptive.factorizations)
    [ 1e-3; 1e-5; 1e-7 ];
  (* the classical counterpart with the same controller *)
  List.iter
    (fun tol ->
      let t, (w, stats) =
        timed ~runs:1 (fun () ->
            Adaptive_trap.solve ~tol ~h_init:1e-7 ~t_end sys srcs)
      in
      Printf.printf "%-26s %10d %12s %14.1f   (%d rejected, %d LU)\n"
        (Printf.sprintf "adaptive trap tol=%g" tol)
        stats.Adaptive_trap.accepted (pp_time t)
        (Error.waveform_error_db ~reference w)
        stats.Adaptive_trap.rejected stats.Adaptive_trap.factorizations)
    [ 1e-3; 1e-5; 1e-7 ]

(* ------------------------------------------------------------------ *)
(* Ablation: column-by-column vs Kronecker (paper §III-A)              *)

let ablation_kron () =
  header "Ablation — column solve vs full Kronecker system (paper eq. 15)";
  Printf.printf "%-10s %-6s %14s %14s %10s\n" "n" "m" "column" "kronecker"
    "speedup";
  rule ();
  List.iter
    (fun (n, m) ->
      let sys = Descriptor.random_stable ~seed:(n + m) ~n ~p:1 ~q:1 () in
      let e = Descriptor.e_dense sys and a = Descriptor.a_dense sys in
      let grid = Grid.uniform ~t_end:1.0 ~m in
      let d = Block_pulse.differential_matrix grid in
      let st = Random.State.make [| 3 |] in
      let bu = Mat.init n m (fun _ _ -> Random.State.float st 2.0 -. 1.0) in
      let t_col, x1 =
        timed (fun () -> column_solve sys d bu)
      in
      let t_kron, x2 =
        timed ~runs:1 (fun () ->
            Engine.solve_dense_kron ~terms:[ (e, d) ] ~a ~bu)
      in
      assert (Mat.max_abs_diff x1 x2 < 1e-6);
      Printf.printf "%-10d %-6d %14s %14s %9.0fx\n" n m (pp_time t_col)
        (pp_time t_kron) (t_kron /. t_col))
    [ (10, 8); (10, 32); (20, 32); (30, 32); (20, 64) ]

(* ------------------------------------------------------------------ *)
(* Convergence vs an exact reference (paper claim (i): OPM has          *)
(* "roughly the same performance as trapezoidal and Gear's methods")   *)

let convergence () =
  header
    "Convergence — error vs step count against the exact LTI reference";
  (* an RLC mesh driven by a smooth source, observed at a far node *)
  let input = Source.Sine { amplitude = 1.0; freq_hz = 2e5; phase = 0.3; offset = 0.5 } in
  let net =
    Netlist.of_list
      [
        Netlist.i "I1" "a" "0" input;
        Netlist.r "R1" "a" "b" 100.0;
        Netlist.c "C1" "a" "0" 1e-9;
        Netlist.r "R2" "b" "c" 100.0;
        Netlist.c "C2" "b" "0" 1e-9;
        Netlist.l "L1" "c" "0" 1e-5;
        Netlist.c "C3" "c" "0" 1e-9;
        Netlist.r "R3" "c" "0" 1e3;
      ]
  in
  let sys, srcs = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "c" ] net in
  let n = Descriptor.order sys in
  let t_end = 2e-5 in
  let reference = Exact_lti.solve ~h:(t_end /. 4096.0) ~t_end sys srcs in
  Printf.printf "%-8s %14s %14s %14s %14s\n" "m" "OPM (dB)" "trap (dB)"
    "Gear (dB)" "b-Euler (dB)";
  rule ();
  List.iter
    (fun m ->
      let h = t_end /. float_of_int m in
      let err w = Error.waveform_error_db ~reference w in
      let t_opm, r_opm =
        timed ~runs:1 (fun () ->
            Opm.simulate_linear ~grid:(Grid.uniform ~t_end ~m) sys srcs)
      in
      let e_opm = err r_opm.Sim_result.outputs in
      add_row ~method_:"opm" ~n ~m ~wall_s:t_opm ~error_db:e_opm ();
      let e_of name scheme =
        let t, w =
          timed ~runs:1 (fun () -> Stepper.solve ~scheme ~h ~t_end sys srcs)
        in
        add_row ~method_:name ~n ~m ~wall_s:t ~error_db:(err w) ();
        err w
      in
      Printf.printf "%-8d %14.1f %14.1f %14.1f %14.1f\n" m e_opm
        (e_of "trap" Stepper.Trapezoidal)
        (e_of "gear" Stepper.Gear2)
        (e_of "b-euler" Stepper.Backward_euler))
    (if !smoke_mode then [ 16; 32; 64 ] else [ 16; 32; 64; 128; 256; 512 ]);
  flush_json ~table:"convergence" ~default_file:"BENCH_convergence.json";
  print_endline
    "expected shape: OPM, trapezoidal and Gear improve ~12 dB per doubling\n\
     (order 2); backward Euler only ~6 dB (order 1) — the paper's claim (i)."

(* ------------------------------------------------------------------ *)
(* FFT sample-count sweep (extends Table I's two data points)          *)

let fft_sweep () =
  header "FFT accuracy sweep — t-line model, error vs sample count";
  let sys = Tline.model () in
  let srcs = Tline.inputs () in
  let t_end = Tline.t_end and alpha = Tline.alpha in
  let fine =
    Opm.simulate_fractional ~grid:(Grid.uniform ~t_end ~m:512) ~alpha sys srcs
  in
  Printf.printf "%-10s %14s %16s\n" "N" "runtime" "err vs OPM (dB)";
  rule ();
  List.iter
    (fun n ->
      let t, w =
        timed (fun () -> Freq_domain.solve ~n_samples:n ~alpha ~t_end sys srcs)
      in
      Printf.printf "%-10d %14s %16.1f\n" n (pp_time t)
        (Error.waveform_error_db ~reference:fine.Sim_result.outputs w))
    [ 8; 16; 32; 64; 100; 128; 256; 512; 1024 ]

(* ------------------------------------------------------------------ *)
(* Parallel sweep — domain-pool scaling of the independent outer loops *)

module Pool = Opm_parallel.Pool

let parallel_sweep () =
  let max_domains = Pool.default_domains () in
  header
    (Printf.sprintf
       "Parallel sweep — domain pool scaling (up to %d domains; hardware \
        reports %d core(s))"
       max_domains
       (Domain.recommended_domain_count ()));
  let domain_counts =
    List.sort_uniq compare (List.filter (fun d -> d <= max_domains) [ 1; 2; 4 ] @ [ max_domains ])
  in
  (* workload 1: AC sweep — one complex factor-and-solve per frequency *)
  let input = Source.Step { amplitude = 1.0; delay = 0.0 } in
  let net = Generators.rc_ladder ~sections:40 ~input () in
  let sys, srcs = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "n40" ] net in
  let ac_points = 240 in
  let run_ac pool =
    Ac.sweep ~pool ~omega_min:1e2 ~omega_max:1e9 ~points:ac_points sys
  in
  (* workload 2: parameter sweep — one full transient + measurement per
     ladder resistance value *)
  let param_values = Array.init 24 (fun k -> 200.0 +. (100.0 *. float_of_int k)) in
  let evaluate r =
    let net = Generators.rc_ladder ~r ~sections:12 ~input () in
    let sys, srcs = Mna.stamp_linear ~outputs:[ Mna.Node_voltage "n12" ] net in
    let grid = Grid.uniform ~t_end:2e-4 ~m:256 in
    let res = Opm.simulate_linear ~grid sys srcs in
    Opm_signal.Measure.rise_time res.Sim_result.outputs ~channel:0
  in
  let run_param pool = Sweep.run ~pool evaluate param_values in
  (* workload 3: FFT frequency-domain transient — one contour solve per bin *)
  let run_fft pool =
    Freq_domain.solve ~pool ~n_samples:256 ~alpha:1.0 ~t_end:2e-4 sys srcs
  in
  let time_with_pool d f =
    Pool.with_pool ~domains:d (fun pool -> timed ~runs:3 (fun () -> f pool))
  in
  let baseline_ac = ref nan and baseline_param = ref nan and baseline_fft = ref nan in
  let ref_ac = ref None and ref_param = ref None and ref_fft = ref None in
  Printf.printf "%-10s %14s %14s %14s %26s\n" "domains"
    (Printf.sprintf "AC (%d pts)" ac_points)
    (Printf.sprintf "param (%d)" (Array.length param_values))
    "FFT (256)" "speedup (AC/param/FFT)";
  rule ();
  List.iter
    (fun d ->
      let t_ac, ac = time_with_pool d run_ac in
      let t_param, param = time_with_pool d run_param in
      let t_fft, fft = time_with_pool d run_fft in
      (match !ref_ac with
      | None ->
          baseline_ac := t_ac;
          baseline_param := t_param;
          baseline_fft := t_fft;
          ref_ac := Some ac;
          ref_param := Some param;
          ref_fft := Some fft
      | Some serial_ac ->
          (* determinism contract: bit-identical to the 1-domain run *)
          let ac_diff =
            List.fold_left2
              (fun acc p q ->
                Float.max acc (Cmat.max_abs_diff p.Ac.response q.Ac.response))
              0.0 serial_ac ac
          in
          let param_identical =
            Option.get !ref_param
            |> Array.for_all2 (fun (v, m) (v', m') -> v = v' && m = m') param
          in
          let fft_identical =
            let a = Option.get !ref_fft in
            let qn = Opm_signal.Waveform.channel_count a in
            qn = Opm_signal.Waveform.channel_count fft
            && Array.for_all
                 (fun i ->
                   Opm_signal.Waveform.channel a i
                   = Opm_signal.Waveform.channel fft i)
                 (Array.init qn Fun.id)
          in
          if ac_diff <> 0.0 || (not param_identical) || not fft_identical then begin
            Printf.printf
              "!! %d-domain results differ from serial (AC max diff %g, param \
               identical %b, fft identical %b)\n"
              d ac_diff param_identical fft_identical;
            exit 1
          end);
      Printf.printf "%-10d %14s %14s %14s %12s\n" d (pp_time t_ac)
        (pp_time t_param) (pp_time t_fft)
        (Printf.sprintf "%.2fx / %.2fx / %.2fx" (!baseline_ac /. t_ac)
           (!baseline_param /. t_param) (!baseline_fft /. t_fft)))
    domain_counts;
  rule ();
  print_endline
    "serial and parallel results verified bit-identical at every pool size."

(* ------------------------------------------------------------------ *)
(* Observability overhead — the instrumented Table I kernel with the   *)
(* metrics/trace flags off must be bit-identical to itself with them   *)
(* on, and the enabled-vs-disabled overhead must stay under 2%         *)

let obs_overhead () =
  header "Observability overhead — Table I kernel, instrumentation off vs on";
  let sys = Tline.model () in
  let srcs = Tline.inputs () in
  let alpha = Tline.alpha and t_end = Tline.t_end in
  let m = if !smoke_mode then 64 else 256 in
  let grid = Grid.uniform ~t_end ~m in
  let kernel () = Opm.simulate_fractional ~grid ~alpha sys srcs in
  let set b =
    Metrics.set_enabled b;
    Opm_obs.Trace.set_enabled b
  in
  (* identity: the same kernel, flags off then on, must produce the
     same coefficient matrix bit for bit *)
  set false;
  let r_off = kernel () in
  set true;
  let r_on = kernel () in
  set false;
  let identical =
    let q, mm = Mat.dims r_off.Sim_result.x in
    let same = ref true in
    for i = 0 to q - 1 do
      for j = 0 to mm - 1 do
        if
          not
            (Int64.equal
               (Int64.bits_of_float (Mat.get r_off.Sim_result.x i j))
               (Int64.bits_of_float (Mat.get r_on.Sim_result.x i j)))
        then same := false
      done
    done;
    !same
  in
  Printf.printf "bit-identical with instrumentation on vs off: %s\n"
    (if identical then "HOLDS" else "VIOLATED");
  (* overhead: interleaved off/on batches, then the *median* of the
     per-pair on/off ratios — adjacent batches see the same machine
     state, so clock-frequency drift and scheduler noise cancel within
     a pair, and the median discards the pairs that still got hit *)
  let reps = if !smoke_mode then 10 else 40 in
  let batch () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (kernel ())
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (kernel ());
  let pairs = if !smoke_mode then 5 else 11 in
  let ratios = Array.make pairs 0.0 in
  let t_off = ref infinity and t_on = ref infinity in
  for p = 0 to pairs - 1 do
    set false;
    let a = batch () in
    if a < !t_off then t_off := a;
    set true;
    let b = batch () in
    if b < !t_on then t_on := b;
    ratios.(p) <- b /. a
  done;
  set false;
  Opm_obs.Trace.reset ();
  Metrics.reset ();
  Array.sort compare ratios;
  let overhead = ratios.(pairs / 2) -. 1.0 in
  Printf.printf
    "kernel (m = %d): disabled %s/run, enabled %s/run, median overhead \
     %+.2f%% (budget 2%%): %s\n"
    m
    (pp_time (!t_off /. float_of_int reps))
    (pp_time (!t_on /. float_of_int reps))
    (100.0 *. overhead)
    (if overhead < 0.02 then "HOLDS" else "VIOLATED");
  if not identical then exit 1

(* ------------------------------------------------------------------ *)
(* Resilience matrix — three phases over the Table I windowed kernel
   (α = 1/2, n = 7, m = 256, w = 64; m = 256 keeps the FFT history
   path engaged so the fft-block site is live):

   1. fault matrix: every (site × kind) pair injected once; the
      invariant is that the outcome is always a structured error or a
      correct recovery (≤ 1e-6 relative of the fault-free reference),
      never a silently wrong answer and never NaN/Inf in a returned
      result;
   2. kill/resume differential: an injected ENOSPC truncates the run at
      every window boundary in turn; resuming from the surviving
      checkpoint must reproduce the uninterrupted run bit for bit;
   3. overhead gate: the same kernel with the crash-safety machinery
      disabled vs armed-but-inert (never-firing plan + unreachable
      budget caps), interleaved batches, min-of-batches ratio < 2%.

   Emitted as BENCH_resilience.json (opm-bench-v1; rows carry an extra
   [outcome] tag the validator checks against the allowed set).        *)

let resilience () =
  header "Resilience — fault matrix, kill/resume differential, overhead gate";
  let sys = Tline.model () in
  let srcs = Tline.inputs () in
  let alpha = Tline.alpha and t_end = Tline.t_end in
  let n = Descriptor.order sys in
  let m = 256 and w = 64 in
  let nwin = (m + w - 1) / w in
  let grid = Grid.uniform ~t_end ~m in
  let seed =
    match
      Option.bind (Sys.getenv_opt "OPM_PROP_SEED") (fun s ->
          int_of_string_opt (String.trim s))
    with
    | Some s -> s
    | None -> 20260806
  in
  let solve ?budget ?checkpoint ?resume_from () =
    Opm.simulate_fractional ?budget ?checkpoint ~checkpoint_every:1
      ?resume_from ~window:w ~grid ~alpha sys srcs
  in
  Fault.disarm ();
  let reference = (solve ()).Sim_result.x in
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
  in
  let rel_err x =
    let scale = Float.max (Mat.norm_inf reference) 1e-300 in
    Mat.max_abs_diff x reference /. scale
  in
  let finite x =
    let r, c = Mat.dims x in
    let ok = ref true in
    for i = 0 to r - 1 do
      for j = 0 to c - 1 do
        if not (Float.is_finite (Mat.get x i j)) then ok := false
      done
    done;
    !ok
  in
  let row ~site ~kind ~outcome ~wall ~rel =
    if !json_mode then
      json_rows :=
        Json.Obj
          [
            ("method", Json.String (site ^ "/" ^ kind));
            ("n", Json.Int n);
            ("m", Json.Int m);
            ("wall_s", Json.Float wall);
            ("error_db", Json.Float (20.0 *. log10 (Float.max rel 1e-16)));
            ("outcome", Json.String outcome);
          ]
        :: !json_rows
  in
  let violations = ref 0 in
  let tmp = Filename.temp_file "opm_resilience" ".ckpt" in
  (* -------- phase 1: the site × kind matrix -------- *)
  Printf.printf "%-18s %-11s %-18s %10s\n" "site" "kind" "outcome" "rel_err";
  rule ();
  List.iter
    (fun site ->
      List.iter
        (fun kind ->
          (* the pencil factorises exactly once per run, so the
             factor site only reaches occurrence 1; everywhere else
             occurrence 2 checks that the counters really count *)
          let nth = match site with Fault.Factor -> 1 | _ -> 2 in
          Fault.arm { Fault.seed; site; kind; nth };
          let t0 = Unix.gettimeofday () in
          let outcome, rel =
            match solve ~checkpoint:tmp () with
            | r ->
                let fired = Fault.injected_total () > 0 in
                if not (finite r.Sim_result.x) then begin
                  incr violations;
                  ("non-finite", Float.infinity)
                end
                else
                  let rel = rel_err r.Sim_result.x in
                  if not fired then ("no-fire", rel)
                  else if rel <= 1e-6 then ("recovered", rel)
                  else begin
                    incr violations;
                    ("wrong-answer", rel)
                  end
            | exception Opm_error.Error _ -> ("structured-error", 0.0)
            | exception Window.Interrupted _ -> ("structured-error", 0.0)
            | exception e ->
                incr violations;
                ("unstructured:" ^ Printexc.to_string e, Float.infinity)
          in
          let wall = Unix.gettimeofday () -. t0 in
          Fault.disarm ();
          Printf.printf "%-18s %-11s %-18s %10.2e\n"
            (Fault.site_to_string site)
            (Fault.kind_to_string kind)
            outcome rel;
          row
            ~site:(Fault.site_to_string site)
            ~kind:(Fault.kind_to_string kind)
            ~outcome ~wall ~rel)
        Fault.all_kinds)
    Fault.all_sites;
  (* -------- phase 2: kill/resume differential -------- *)
  Printf.printf "\nkill/resume differential (truncate at every boundary):\n";
  let resume_fail = ref 0 in
  for k = 1 to nwin do
    let ck = Filename.temp_file "opm_resume" ".ckpt" in
    Sys.remove ck;
    Fault.arm
      { Fault.seed; site = Fault.Checkpoint_write; kind = Fault.Enospc; nth = k };
    (match solve ~checkpoint:ck () with
    | _ ->
        incr resume_fail;
        Printf.printf "  boundary %d: expected an interruption, run completed\n"
          k
    | exception Window.Interrupted { checkpoint; _ } -> (
        Fault.disarm ();
        match checkpoint with
        | None ->
            if k = 1 then
              Printf.printf
                "  boundary 1: interrupted before any checkpoint (ok)\n"
            else begin
              incr resume_fail;
              Printf.printf "  boundary %d: no checkpoint survived\n" k
            end
        | Some path ->
            let r = solve ~checkpoint:ck ~resume_from:path () in
            let ok = bits_equal r.Sim_result.x reference in
            if not ok then incr resume_fail;
            Printf.printf "  boundary %d: resume %s\n" k
              (if ok then "bit-identical" else "DIVERGED"))
    | exception e ->
        incr resume_fail;
        Printf.printf "  boundary %d: unexpected %s\n" k
          (Printexc.to_string e));
    Fault.disarm ();
    if Sys.file_exists ck then Sys.remove ck
  done;
  row ~site:"resume" ~kind:"differential"
    ~outcome:(if !resume_fail = 0 then "recovered" else "wrong-answer")
    ~wall:0.0 ~rel:0.0;
  (* -------- phase 3: disabled-path overhead gate -------- *)
  Fault.disarm ();
  let inert_budget =
    Budget.create ~deadline_s:1e9 ~max_factors:1_000_000_000
      ~max_heap_mb:1e12 ()
  in
  let kernel_off () = ignore (solve () : Sim_result.t) in
  let kernel_on () =
    Fault.arm
      {
        Fault.seed;
        site = Fault.Factor;
        kind = Fault.Latency;
        nth = 1_000_000_000;
      };
    ignore (solve ~budget:inert_budget () : Sim_result.t);
    Fault.disarm ()
  in
  let rounds = if !smoke_mode then 40 else 400 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  kernel_off ();
  kernel_on ();
  (* scheduler preemption and GC pauses only ever *add* time, so the
     minimum over many interleaved single solves is the robust
     per-variant floor (~1.5 ms/solve against a µs clock). Batch means
     and medians of pair ratios both carry a noise floor above the 2%
     budget itself on a loaded machine; one clean solve per variant is
     enough and the interleave guarantees both variants get the same
     shot at quiet slots *)
  let t_off = ref Float.infinity and t_on = ref Float.infinity in
  for r = 0 to rounds - 1 do
    if r land 1 = 0 then begin
      t_off := Float.min !t_off (timed kernel_off);
      t_on := Float.min !t_on (timed kernel_on)
    end
    else begin
      t_on := Float.min !t_on (timed kernel_on);
      t_off := Float.min !t_off (timed kernel_off)
    end
  done;
  let overhead = (!t_on /. !t_off) -. 1.0 in
  let holds = overhead < 0.02 in
  Printf.printf
    "\ndisabled-path overhead: min-ratio %+.2f%% armed-inert vs off (budget \
     2%%): %s%s\n"
    (100.0 *. overhead)
    (if holds then "HOLDS" else "VIOLATED")
    (if !smoke_mode && not holds then " (smoke: informational)" else "");
  row ~site:"overhead" ~kind:"inert"
    ~outcome:
      (if holds then "holds"
       else if !smoke_mode then "informational"
       else "violated")
    ~wall:0.0 ~rel:(Float.max overhead 0.0);
  if Sys.file_exists tmp then Sys.remove tmp;
  flush_json ~table:"resilience" ~default_file:"BENCH_resilience.json";
  Printf.printf
    "\nfault-matrix invariant (structured error or correct recovery): %s\n"
    (if !violations = 0 then "HOLDS" else "VIOLATED");
  Printf.printf "kill/resume bit-identity: %s\n"
    (if !resume_fail = 0 then "HOLDS" else "VIOLATED");
  if !violations > 0 || !resume_fail > 0 then exit 1;
  if (not holds) && not !smoke_mode then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table                  *)

(* ------------------------------------------------------------------ *)
(* window-scaling — streaming driver telemetry: wall time and heap
   footprint vs horizon length m at fixed relative window width w =
   m/8, windowed (full tail and m/8-truncated) against the global
   solve on the Table I fractional line. Emitted as BENCH_window.json
   (opm-bench-v1; rows carry an extra heap_words peak-footprint proxy
   sampled right after each run, following a pre-run Gc.compact, and
   the raw max_rel_diff from the global solve, which the validator
   requires to be 0 on the full-memory window rows: a window is a
   boundary hook on the one column loop, so its bits are the global
   run's).                                                            *)

let window_scaling () =
  header "Window scaling — fractional t-line (α = 1/2, n = 7), w = m/8";
  let sys = Tline.model () in
  let srcs = Tline.inputs () in
  let alpha = Tline.alpha and t_end = Tline.t_end in
  let n = Descriptor.order sys in
  let sizes = if !smoke_mode then [ 64; 128 ] else [ 256; 512; 1024 ] in
  let runs = if !smoke_mode then 1 else 3 in
  Printf.printf "%-24s %4s %6s %12s %10s %12s %12s\n" "method" "n" "m" "wall"
    "err_db" "max rel Δ" "heap_words";
  rule ();
  List.iter
    (fun m ->
      let grid = Grid.uniform ~t_end ~m in
      let w = max 1 (m / 8) in
      let measure f =
        Gc.compact ();
        let t, r = timed ~runs f in
        (t, (Gc.stat ()).Gc.heap_words, r)
      in
      let t_g, heap_g, global =
        measure (fun () -> Opm.simulate_fractional ~grid ~alpha sys srcs)
      in
      let row method_ wall (r : Sim_result.t) heap =
        let scale = Float.max (Mat.norm_inf global.Sim_result.x) 1e-300 in
        let rel = Mat.max_abs_diff r.Sim_result.x global.Sim_result.x /. scale in
        (* the dB column clamps at the −320 dB floor; max_rel_diff does not *)
        let err = 20.0 *. log10 (Float.max rel 1e-16) in
        Printf.printf "%-24s %4d %6d %12s %10.1f %12.2e %12d\n" method_ n m
          (pp_time wall) err rel heap;
        add_row
          ~extra:[ ("max_rel_diff", Json.Float rel); ("heap_words", Json.Int heap) ]
          ~method_ ~n ~m ~wall_s:wall ~error_db:err ()
      in
      (* the global run is the reference: its error row is the floor *)
      row "opm-global" t_g global heap_g;
      let t_w, heap_w, windowed =
        measure (fun () ->
            Opm.simulate_fractional ~window:w ~grid ~alpha sys srcs)
      in
      row (Printf.sprintf "opm-window-w%d" w) t_w windowed heap_w;
      let k = max 1 (m / 8) in
      let t_k, heap_k, truncated =
        measure (fun () ->
            Opm.simulate_fractional ~window:w ~memory_len:k ~grid ~alpha sys
              srcs)
      in
      row (Printf.sprintf "opm-window-w%d-k%d" w k) t_k truncated heap_k)
    sizes;
  flush_json ~table:"window-scaling" ~default_file:"BENCH_window.json"

(* ------------------------------------------------------------------ *)
(* rhs-conv — the engine's FFT history vs a direct column scan on the
   Table I kernel (fractional t-line, α = 1/2, n = 7). The naive rows
   time [Recast_oracle]: the same recast system solved by
   [Engine.triangular] over dense m×m operational matrices; the fft
   rows time [Engine.toeplitz], the history [Opm.simulate_fractional]
   solves with. Both routes build their pencil, history and forcing
   outside the clock and are timed from prepare to the last column;
   the untimed warm-up run factors each pencil's block into its cache,
   so the timed runs compare the history cost alone. The fft route's
   states are checked once, untimed, to be the bits of
   [Opm.simulate_fractional]. Each wall is the median of runs that
   alternate naive and fft, so both routes see the same machine state;
   a best-of at m <= 128 swung about 2× between runs of one build. The
   naive rows carry the −320 dB reference floor; each fft row records
   the max relative deviation from its naive twin, which the validator
   gates at the ≤ 1e-10 (−200 dB) differential contract. Emitted as
   BENCH_rhsconv.json (opm-bench-v1).                                   *)

let rhs_conv () =
  header
    "RHS history convolution — direct scan vs FFT convolver (t-line, α = 1/2, n = 7)";
  let sys = Tline.model () in
  let srcs = Tline.inputs () in
  let alpha = Tline.alpha and t_end = Tline.t_end in
  let n = Descriptor.order sys in
  let sizes =
    if !smoke_mode then [ 64; 128; 256 ] else [ 64; 128; 256; 512; 1024; 2048 ]
  in
  (* sub-ms solves need more repetitions for a stable median on a
     noisy box *)
  let runs_for m = if !smoke_mode then 1 else if m <= 256 then 9 else 3 in
  let median ts =
    Array.sort Float.compare ts;
    ts.(Array.length ts / 2)
  in
  Printf.printf "%-12s %4s %6s %12s %12s %9s %12s\n" "method" "n" "m" "naive"
    "fft" "speedup" "max rel Δ";
  rule ();
  List.iter
    (fun m ->
      let grid = Grid.uniform ~t_end ~m in
      let runs = runs_for m in
      let mt = Multi_term.of_fractional ~alpha sys in
      let pencil, history, bu = Recast_oracle.plan ~grid mt srcs in
      let naive_run () = Engine.solve (Engine.prepare Engine.default pencil history) bu in
      let fft_pencil =
        Engine.pencil `Auto
          (List.map (fun { Multi_term.coeff; _ } -> coeff) mt.Multi_term.terms
          @ [ mt.Multi_term.a ])
      in
      let fft_history =
        Engine.toeplitz ~orders:[ alpha ] ~step:(t_end /. float_of_int m) m
      in
      let fft_bu = Compiled_model.bu_matrix ~grid mt srcs in
      let fft_run () =
        Engine.solve (Engine.prepare Engine.default fft_pencil fft_history) fft_bu
      in
      (* one untimed warm-up pair gives the outputs and factors both
         blocks; the timed runs alternate the two routes *)
      let naive = naive_run () in
      let fft = fft_run () in
      let reference = (Opm.simulate_fractional ~grid ~alpha sys srcs).Sim_result.x in
      let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      if Mat.dims fft <> Mat.dims reference
         || not (Array.for_all2 same_bits fft.Mat.data reference.Mat.data)
      then begin
        Printf.eprintf "rhs-conv: m = %d: the timed fft route is not Opm.simulate_fractional's\n" m;
        exit 1
      end;
      let walls =
        Array.init runs (fun _ ->
            let t_naive = fst (wall naive_run) in
            (t_naive, fst (wall fft_run)))
      in
      let t_naive = median (Array.map fst walls) and t_fft = median (Array.map snd walls) in
      let scale = Float.max (Mat.norm_inf naive) 1e-300 in
      let rel = Mat.max_abs_diff fft naive /. scale in
      let err_db = 20.0 *. log10 (Float.max rel 1e-16) in
      add_row ~method_:"rhs-naive" ~n ~m ~wall_s:t_naive ~error_db:(-320.0) ();
      add_row ~method_:"rhs-fft" ~n ~m ~wall_s:t_fft ~error_db:err_db ();
      Printf.printf "%-12s %4d %6d %12s %12s %8.2fx %12.2e\n" "rhs" n m
        (pp_time t_naive) (pp_time t_fft)
        (t_naive /. t_fft)
        rel)
    sizes;
  flush_json ~table:"rhs-conv" ~default_file:"BENCH_rhsconv.json";
  print_endline
    "expected shape: history cost alone (both routes timed from prepare,\n\
     factors cached): the FFT convolver about 1.2-1.35x ahead at m = 64\n\
     (below its 32-column base it sums the lags directly) and pulling\n\
     away ~O(m/log² m), about 20-37x at m = 2048; max rel Δ stays at\n\
     roundoff, far inside the 1e-10 differential contract."

(* ------------------------------------------------------------------ *)
(* compiled-qps — factor-once / query-many serving throughput: a fixed
   fractional plant queried with N different source vectors, cold
   (full Opm.simulate_fractional per query: basis expansion, D^α
   build, FFT plan, pencil factorisation every time) vs compiled
   (Compiled_model.compile once, then per-query solves that touch only
   the input-dependent RHS). The two paths must agree bit for bit, and
   the compiled batch must perform exactly one pencil factorisation.
   Emitted as BENCH_compiled.json (opm-bench-v1; rows carry
   queries_per_s instead of error_db). The HTTP serving layer built on
   this split is measured separately by [serve] below.                 *)

let compiled_qps () =
  let n = if !smoke_mode then 24 else 96 in
  let m = if !smoke_mode then 256 else 4096 in
  let queries = 8 in
  let alpha = 0.5 in
  header
    (Printf.sprintf
       "compiled-qps — fixed plant (n = %d, α = %g), %d queries at m = %d" n
       alpha queries m);
  let sys = Descriptor.random_stable ~seed:7 ~n ~p:2 ~q:2 () in
  let t_end = 1.0 in
  let grid = Grid.uniform ~t_end ~m in
  (* the sweep workload: same plant, different excitations per query *)
  let sources k =
    [|
      Source.Sine
        {
          amplitude = 1.0;
          freq_hz = 1.0 +. float_of_int k;
          phase = 0.1 *. float_of_int k;
          offset = 0.0;
        };
      Source.Step
        { amplitude = 0.5 +. (0.1 *. float_of_int k); delay = t_end /. 8.0 };
    |]
  in
  (* cold: the historical one-shot path, everything rebuilt per query *)
  let t_cold, cold =
    wall (fun () ->
        Array.init queries (fun k ->
            Opm.simulate_fractional ~grid ~alpha sys (sources k)))
  in
  (* compiled: plant-dependent work once, input-dependent work per query;
     count pencil factorisations across compile + the whole batch *)
  let metrics_were_on = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  let t_compile, model =
    wall (fun () -> Compiled_model.compile_fractional ~grid ~alpha sys)
  in
  let t_serve, served =
    wall (fun () ->
        Array.init queries (fun k -> Compiled_model.solve model (sources k)))
  in
  let factorisations =
    Metrics.counter_value (Metrics.counter "lu.factor")
    + Metrics.counter_value (Metrics.counter "slu.factor")
  in
  if not metrics_were_on then Metrics.set_enabled false;
  let bits_equal a b =
    let ra, ca = Mat.dims a and rb, cb = Mat.dims b in
    ra = rb && ca = cb
    &&
    let ok = ref true in
    for i = 0 to ra - 1 do
      for j = 0 to ca - 1 do
        if
          not
            (Int64.equal
               (Int64.bits_of_float (Mat.get a i j))
               (Int64.bits_of_float (Mat.get b i j)))
        then ok := false
      done
    done;
    !ok
  in
  let identical =
    Array.for_all2
      (fun (c : Sim_result.t) (s : Sim_result.t) ->
        bits_equal c.Sim_result.x s.Sim_result.x)
      cold served
  in
  let qps_cold = float_of_int queries /. t_cold in
  let qps_serve = float_of_int queries /. t_serve in
  let qps_total = float_of_int queries /. (t_compile +. t_serve) in
  let row method_ wall_s qps =
    Printf.printf "%-16s %4d %6d %12s %14.1f q/s\n" method_ n m
      (pp_time wall_s) qps;
    if !json_mode then
      json_rows :=
        Json.Obj
          [
            ("method", Json.String method_);
            ("n", Json.Int n);
            ("m", Json.Int m);
            ("wall_s", Json.Float wall_s);
            ("queries_per_s", Json.Float qps);
          ]
        :: !json_rows
  in
  Printf.printf "%-16s %4s %6s %12s %16s\n" "method" "n" "m" "wall"
    "throughput";
  rule ();
  row "cold" t_cold qps_cold;
  row "compiled-serve" t_serve qps_serve;
  row "compiled-total" (t_compile +. t_serve) qps_total;
  rule ();
  Printf.printf
    "compile %s; %d queries; %d pencil factorisation(s) across compile + \
     batch\n"
    (pp_time t_compile) queries factorisations;
  Printf.printf "bit-identical cold vs compiled: %s\n"
    (if identical then "HOLDS" else "VIOLATED");
  let speedup = qps_serve /. qps_cold in
  Printf.printf "serving speedup: %.1fx %s\n" speedup
    (if !smoke_mode then "(smoke sizes; the 5x target applies to the full run)"
     else if speedup >= 5.0 then "(>= 5x target: HOLDS)"
     else "(>= 5x target: VIOLATED)");
  flush_json ~table:"compiled-qps" ~default_file:"BENCH_compiled.json";
  if not identical then exit 1;
  if factorisations <> 1 then begin
    Printf.eprintf
      "compiled-qps: expected exactly 1 factorisation, measured %d\n"
      factorisations;
    exit 1
  end

(* serve — sustained HTTP serving throughput against an in-process
   opm_serve daemon. A seeded mixed workload — hot-cache sweeps on one
   plant (varying source amplitude, so every request shares the single
   compiled model), cold plants (a fresh resistor value per request,
   forcing a compile and exercising eviction against the bounded
   cache), and malformed requests — driven by concurrent keep-alive
   clients. Reports sustained requests/sec and p99 latency per class
   into BENCH_serve.json. Every hot response is checked bit-identical
   against the in-process reference; a single wrong answer fails the
   bench (and the validator independently rejects any row with
   wrong_answers > 0).                                                 *)

let serve_bench () =
  let clients = if !smoke_mode then 4 else 8 in
  (* a multiple of the 20-slot schedule so every class (hot, cold,
     malformed) is exercised even at smoke size *)
  let per_client = if !smoke_mode then 20 else 60 in
  let steps = if !smoke_mode then 96 else 512 in
  let t_end = 0.005 in
  header
    (Printf.sprintf "serve — %d clients x %d mixed requests (steps = %d)"
       clients per_client steps);
  let module Server = Opm_serve.Server in
  let server =
    Server.start
      ~config:{ Server.default_config with port = 0; cache_capacity = 8 }
      ()
  in
  let port = Server.port server in
  (* -- minimal keep-alive HTTP client ------------------------------ *)
  let write_all fd s =
    let b = Bytes.unsafe_of_string s in
    let n = Bytes.length b in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write fd b !off (n - !off)
    done
  in
  let read_response fd =
    let buf = Buffer.create 4096 in
    let tmp = Bytes.create 4096 in
    let read_more () =
      match Unix.read fd tmp 0 4096 with
      | 0 -> failwith "serve bench: connection closed mid-response"
      | n -> Buffer.add_subbytes buf tmp 0 n
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _)
        ->
          failwith "serve bench: client receive timeout"
    in
    let head_end () =
      let s = Buffer.contents buf in
      let rec find i =
        if i + 3 >= String.length s then None
        else if
          s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
          && s.[i + 3] = '\n'
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
    let head = String.sub (Buffer.contents buf) 0 body_start in
    let status =
      match String.split_on_char ' ' head with
      | _ :: code :: _ -> int_of_string code
      | _ -> failwith "serve bench: malformed status line"
    in
    let content_length =
      let tag = "content-length:" in
      match
        List.find_opt
          (fun l ->
            String.length l >= String.length tag
            && String.sub l 0 (String.length tag) = tag)
          (String.split_on_char '\n' (String.lowercase_ascii head))
      with
      | Some l ->
          int_of_string
            (String.trim
               (String.sub l (String.length tag)
                  (String.length l - String.length tag)))
      | None -> failwith "serve bench: no Content-Length"
    in
    while Buffer.length buf < body_start + content_length do
      read_more ()
    done;
    (status, String.sub (Buffer.contents buf) body_start content_length)
  in
  let request fd body =
    write_all fd
      (Printf.sprintf
         "POST /solve HTTP/1.1\r\nHost: b\r\nContent-Length: %d\r\n\r\n%s"
         (String.length body) body);
    read_response fd
  in
  (* -- workload ---------------------------------------------------- *)
  let hot_netlist amp =
    Printf.sprintf "V1 in 0 step(%.17g)\nR1 in out 1k\nC1 out 0 1u\n" amp
  in
  let cold_netlist r =
    Printf.sprintf "V1 in 0 step(1)\nR1 in out %d\nC1 out 0 1u\n" r
  in
  let solve_body netlist =
    Printf.sprintf
      "{\"netlist\":%s,\"analysis\":{\"t_end\":%g,\"steps\":%d,\"probes\":[\"out\"]}}"
      (Json.to_string (Json.String netlist))
      t_end steps
  in
  let amps = Array.init 16 (fun i -> 0.5 +. (0.25 *. float_of_int i)) in
  (* in-process reference for the wrong-answer check on hot responses *)
  let expected =
    Array.map
      (fun amp ->
        let net = Parser.parse_string (hot_netlist amp) in
        let sys, sources =
          Mna.stamp ~outputs:[ Mna.Node_voltage "out" ] net
        in
        let r =
          Opm.simulate_multi_term ~grid:(Grid.uniform ~t_end ~m:steps) sys
            sources
        in
        r.Sim_result.outputs)
      amps
  in
  let malformed_bodies =
    [|
      "not json at all";
      "{\"netlist\":\"R1 a 0 1k\",\"analysis\":{\"t_end\":-1,\"steps\":8}}";
      "{\"netlist\":\"X1 bogus\",\"analysis\":{\"t_end\":1,\"steps\":8}}";
      "{\"analysis\":{\"t_end\":1,\"steps\":8}}";
    |]
  in
  let floats_of j =
    match Json.to_list_opt j with
    | Some l -> Some (List.map Json.to_float_opt l)
    | None -> None
  in
  let bits_equal_list want got =
    List.length got = Array.length want
    && List.for_all2
         (fun g w ->
           match g with
           | Some g -> Int64.bits_of_float g = Int64.bits_of_float w
           | None -> false)
         got (Array.to_list want)
  in
  (* hot responses must be bit-identical to the in-process reference *)
  let bits_match expected_wave body =
    match Json.of_string body with
    | exception Json.Parse_error _ -> false
    | doc -> (
        let times_ok =
          match Option.bind (Json.member "times" doc) floats_of with
          | Some got -> bits_equal_list expected_wave.Waveform.times got
          | None -> false
        in
        times_ok
        &&
        match Option.bind (Json.member "outputs" doc) Json.to_list_opt with
        | Some [ ch ] -> (
            match floats_of ch with
            | Some got ->
                bits_equal_list expected_wave.Waveform.channels.(0) got
            | None -> false)
        | _ -> false)
  in
  (* cold responses need not match a precomputed reference (each is a
     fresh plant) but must be well-formed 200s with finite samples *)
  let finite_outputs body =
    match Json.of_string body with
    | exception Json.Parse_error _ -> false
    | doc -> (
        match Option.bind (Json.member "outputs" doc) Json.to_list_opt with
        | Some (_ :: _ as chs) ->
            List.for_all
              (fun ch ->
                match floats_of ch with
                | Some got ->
                    got <> []
                    && List.for_all
                         (function
                           | Some g -> Float.is_finite g
                           | None -> false)
                         got
                | None -> false)
              chs
        | _ -> false)
  in
  (* class schedule: deterministic 70/15/15 hot/cold/malformed mix *)
  let class_of i =
    let r = i mod 20 in
    if r < 14 then `Hot else if r < 17 then `Cold else `Malformed
  in
  let latencies = Array.make clients [] in
  let failures = Array.make clients None in
  let client c =
    try
      let st = Random.State.make [| 20260808; 7 * c |] in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Unix.setsockopt_float fd SO_RCVTIMEO 60.0;
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          for i = 0 to per_client - 1 do
            let cls = class_of i in
            let body, check =
              match cls with
              | `Hot ->
                  let k = Random.State.int st (Array.length amps) in
                  ( solve_body (hot_netlist amps.(k)),
                    fun status body ->
                      status = 200 && bits_match expected.(k) body )
              | `Cold ->
                  (* unique resistor per request: always a fresh plant *)
                  let r = 1000 + (10 * ((c * per_client) + i)) + 1 in
                  ( solve_body (cold_netlist r),
                    fun status body -> status = 200 && finite_outputs body )
              | `Malformed ->
                  ( malformed_bodies.(Random.State.int st
                                        (Array.length malformed_bodies)),
                    fun status body ->
                      status >= 400 && status < 500
                      && Json.member "error" (Json.of_string body) <> None )
            in
            let t0 = Unix.gettimeofday () in
            let status, body = request fd body in
            let dt = Unix.gettimeofday () -. t0 in
            latencies.(c) <- (cls, dt, check status body) :: latencies.(c)
          done)
    with e -> failures.(c) <- Some (Printexc.to_string e)
  in
  let t_wall, () =
    wall (fun () ->
        let threads = Array.init clients (fun c -> Thread.create client c) in
        Array.iter Thread.join threads)
  in
  Server.stop server;
  Array.iteri
    (fun c -> function
      | Some msg ->
          Printf.eprintf "serve: client %d failed: %s\n" c msg;
          exit 1
      | None -> ())
    failures;
  let all = Array.to_list latencies |> List.concat in
  let p99 lats =
    match lats with
    | [] -> 0.0
    | _ ->
        let a = Array.of_list lats in
        Array.sort compare a;
        a.(max 0 (int_of_float (ceil (0.99 *. float_of_int (Array.length a))) - 1))
  in
  Printf.printf "%-16s %8s %12s %12s %8s\n" "class" "requests" "req/s"
    "p99" "wrong";
  rule ();
  let total_wrong = ref 0 in
  let class_row method_ filter =
    let sel = List.filter (fun (cls, _, _) -> filter cls) all in
    let count = List.length sel in
    let wrong = List.length (List.filter (fun (_, _, ok) -> not ok) sel) in
    total_wrong := !total_wrong + wrong;
    let lats = List.map (fun (_, dt, _) -> dt) sel in
    let rps = float_of_int count /. t_wall in
    let p99_s = p99 lats in
    Printf.printf "%-16s %8d %12.1f %12s %8d\n" method_ count rps
      (pp_time p99_s) wrong;
    if !json_mode && count > 0 then
      json_rows :=
        Json.Obj
          [
            ("method", Json.String method_);
            ("n", Json.Int count);
            ("m", Json.Int steps);
            ("wall_s", Json.Float t_wall);
            ("requests_per_s", Json.Float rps);
            ("p99_ms", Json.Float (p99_s *. 1e3));
            ("wrong_answers", Json.Int wrong);
          ]
        :: !json_rows
  in
  class_row "serve-hot" (fun c -> c = `Hot);
  class_row "serve-cold" (fun c -> c = `Cold);
  class_row "serve-malformed" (fun c -> c = `Malformed);
  class_row "serve-total" (fun _ -> true);
  rule ();
  Printf.printf "sustained %.1f requests/s over %s; wrong answers: %d\n"
    (float_of_int (List.length all) /. t_wall)
    (pp_time t_wall) !total_wrong;
  flush_json ~table:"serve" ~default_file:"BENCH_serve.json";
  if !total_wrong > 0 then begin
    Printf.eprintf "serve: %d wrong answer(s) observed\n" !total_wrong;
    exit 1
  end

let micro () =
  header "Bechamel micro-benchmarks (one per table)";
  let open Bechamel in
  let open Toolkit in
  (* Table I kernel: OPM fractional solve at the paper's size *)
  let tline_sys = Tline.model () in
  let tline_srcs = Tline.inputs () in
  let grid8 = Grid.uniform ~t_end:Tline.t_end ~m:8 in
  let test_table1 =
    Test.make ~name:"table1/opm-frac-tline-m8"
      (Staged.stage (fun () ->
           Opm.simulate_fractional ~grid:grid8 ~alpha:Tline.alpha tline_sys
             tline_srcs))
  in
  let test_table1_fft =
    Test.make ~name:"table1/fft-100-tline"
      (Staged.stage (fun () ->
           Freq_domain.solve ~n_samples:100 ~alpha:Tline.alpha
             ~t_end:Tline.t_end tline_sys tline_srcs))
  in
  (* Table II kernel: OPM second-order NA on a small grid *)
  let spec =
    { Power_grid.default_spec with nx = 4; ny = 4; nz = 2; load_count = 2 }
  in
  let net = Power_grid.generate spec in
  let na_sys, na_srcs = Na2.stamp net in
  let mna_sys, mna_srcs = Mna.stamp_linear net in
  let grid_t2 = Grid.uniform ~t_end:1e-9 ~m:50 in
  let test_table2 =
    Test.make ~name:"table2/opm-na-grid-4x4x2"
      (Staged.stage (fun () ->
           Opm.simulate_multi_term ~grid:grid_t2 na_sys na_srcs))
  in
  let test_table2_trap =
    Test.make ~name:"table2/trap-mna-grid-4x4x2"
      (Staged.stage (fun () ->
           Stepper.solve ~scheme:Stepper.Trapezoidal ~h:20e-12 ~t_end:1e-9
             mna_sys mna_srcs))
  in
  let grouped =
    Test.make_grouped ~name:"opm"
      [ test_table1; test_table1_fft; test_table2; test_table2_trap ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-36s %16s %10s\n" "benchmark" "time/run" "r²";
  rule ();
  List.iter
    (fun (name, est) ->
      let time_ns =
        match Analyze.OLS.estimates est with
        | Some (t :: _) -> t
        | Some [] | None -> nan
      in
      let r2 =
        match Analyze.OLS.r_square est with Some r -> r | None -> nan
      in
      Printf.printf "%-36s %16s %10.4f\n" name (pp_time (time_ns *. 1e-9)) r2)
    rows

(* ------------------------------------------------------------------ *)
(* driver                                                              *)

let parse_grid_cli args =
  let cli = ref default_cli in
  let rec go = function
    | "--nx" :: v :: rest ->
        cli := { !cli with nx = int_of_string v };
        go rest
    | "--ny" :: v :: rest ->
        cli := { !cli with ny = int_of_string v };
        go rest
    | "--nz" :: v :: rest ->
        cli := { !cli with nz = int_of_string v };
        go rest
    | "--loads" :: v :: rest ->
        cli := { !cli with loads = int_of_string v };
        go rest
    | "--paper" :: rest ->
        cli := paper_cli;
        go rest
    | [] -> ()
    | unknown :: _ -> failwith ("table2: unknown option " ^ unknown)
  in
  go args;
  !cli

(* ------------------------------------------------------------------ *)
(* basis — spectral Jacobi-Gauss collocation vs block pulses on the
   Table-I-class fractional line. The headline crossover: on a smooth
   drive, the smallest spectral m whose error beats the largest BPF
   run's must be >= 10x cheaper in wall time. A mid-interval step drive
   is the Gibbs counter-case: there BPF must win at matched wall.      *)

let basis_bench () =
  header "Basis — spectral collocation vs block pulses (fractional t-line)";
  let sys = Tline.model () in
  let mt = Multi_term.of_fractional ~alpha:Tline.alpha sys in
  let t_end = Tline.t_end in
  let n = Tline.order in
  (* smooth Table-I-class drive: u(0) = u'(0) = 0 keeps the solution
     layer at t^{2+alpha}, so the collocation error falls off a cliff;
     a step drive would cap it at the algebraic t^alpha rate *)
  let omega = 2.0 *. Float.pi *. 1.5 /. t_end in
  let smooth =
    [| Source.Fn (fun t -> 1.0 -. cos (omega *. t)); Source.Dc 0.0 |]
  in
  let rel_err yref y =
    let q, k = Mat.dims y in
    let num = ref 0.0 and den = ref 0.0 in
    for r = 0 to q - 1 do
      for i = 0 to k - 1 do
        let d = Mat.get y r i -. Mat.get yref r i in
        num := !num +. (d *. d);
        den := !den +. (Mat.get yref r i *. Mat.get yref r i)
      done
    done;
    20.0 *. log10 (sqrt (!num /. !den))
  in
  (* reference: a self-converged spectral run far past every candidate,
     cross-validated below by the independent BPF discretisation
     converging monotonically towards it and a GL sanity row *)
  let m_ref = if !smoke_mode then 96 else 128 in
  let sp_ref =
    Spectral_solver.compile ~grid:(Grid.uniform ~t_end ~m:m_ref) mt
  in
  let z_ref = Spectral_solver.solve_nodal sp_ref smooth in
  let y_at times =
    Mat.mul mt.Multi_term.c (Spectral_solver.sample sp_ref z_ref times)
  in
  let fine_times =
    Array.init 257 (fun i -> t_end *. (0.5 +. float_of_int i) /. 257.0)
  in
  let y_ref_fine = y_at fine_times in
  Printf.printf "%-16s %6s  %12s  %s\n" "method" "m" "wall" "err vs ref (dB)";
  rule ();
  let spectral_ms =
    if !smoke_mode then [ 8; 16; 24; 32 ] else [ 8; 16; 24; 32; 48; 64 ]
  in
  let spectral_rows =
    List.map
      (fun m ->
        let grid = Grid.uniform ~t_end ~m in
        let wall_s, y =
          timed (fun () ->
              let sp = Spectral_solver.compile ~grid mt in
              let z = Spectral_solver.solve_nodal sp smooth in
              Mat.mul mt.Multi_term.c (Spectral_solver.sample sp z fine_times))
        in
        let err = rel_err y_ref_fine y in
        Printf.printf "%-16s %6d  %12s  %10.1f\n" "opm-spectral" m
          (pp_time wall_s) err;
        add_row
          ~extra:[ ("basis", Json.String "spectral") ]
          ~method_:"opm-spectral" ~n ~m ~wall_s ~error_db:err ();
        (m, wall_s, err))
      spectral_ms
  in
  let bpf_ms =
    if !smoke_mode then [ 64; 256; 1024 ] else [ 64; 256; 1024; 4096 ]
  in
  let bpf_rows =
    List.map
      (fun m ->
        let grid = Grid.uniform ~t_end ~m in
        let runs = if m >= 2048 then 1 else 3 in
        let wall_s, res =
          timed ~runs (fun () -> Opm.simulate_multi_term ~grid mt smooth)
        in
        let y = Mat.mul mt.Multi_term.c res.Sim_result.x in
        let err = rel_err (y_at (Grid.midpoints grid)) y in
        Printf.printf "%-16s %6d  %12s  %10.1f\n" "opm-bpf" m (pp_time wall_s)
          err;
        add_row
          ~extra:[ ("basis", Json.String "bpf") ]
          ~method_:"opm" ~n ~m ~wall_s ~error_db:err ();
        (m, wall_s, err))
      bpf_ms
  in
  (* reference cross-check 1: the BPF errors (independent discretisation)
     must decrease monotonically towards the spectral reference *)
  let bpf_monotone =
    let errs = List.map (fun (_, _, e) -> e) bpf_rows in
    List.for_all2 (fun a b -> b < a)
      (List.filteri (fun i _ -> i < List.length errs - 1) errs)
      (List.tl errs)
  in
  (* reference cross-check 2: GL sanity row (O(h), so loose) *)
  let m_gl = if !smoke_mode then 512 else 2048 in
  let wall_gl, wf_gl =
    timed ~runs:1 (fun () ->
        Grunwald.solve
          ~h:(t_end /. float_of_int m_gl)
          ~alpha:Tline.alpha ~t_end sys smooth)
  in
  let err_gl =
    let times = wf_gl.Waveform.times in
    let y = Mat.init (Array.length wf_gl.Waveform.channels) (Array.length times)
        (fun r i -> wf_gl.Waveform.channels.(r).(i)) in
    rel_err (y_at times) y
  in
  Printf.printf "%-16s %6d  %12s  %10.1f\n" "gl" m_gl (pp_time wall_gl) err_gl;
  add_row
    ~extra:[ ("basis", Json.String "bpf") ]
    ~method_:"gl" ~n ~m:m_gl ~wall_s:wall_gl ~error_db:err_gl ();
  rule ();
  (* crossover: smallest spectral m (<= 64) at or below the error of the
     largest BPF run *)
  let bpf_m, bpf_wall, bpf_err = List.hd (List.rev bpf_rows) in
  let crossing =
    List.filter (fun (m, _, e) -> m <= 64 && e <= bpf_err) spectral_rows
  in
  let holds, (cm, cwall, cerr) =
    match crossing with
    | [] -> (false, List.hd (List.rev spectral_rows))
    | best :: _ -> (true, best)
  in
  let speedup = bpf_wall /. cwall in
  Printf.printf
    "crossover: spectral m=%d (%.1f dB, %s) vs bpf m=%d (%.1f dB, %s): %.1fx\n"
    cm cerr (pp_time cwall) bpf_m bpf_err (pp_time bpf_wall) speedup;
  Printf.printf "reference cross-check: bpf errors monotone decreasing: %s\n"
    (if bpf_monotone then "HOLDS" else "VIOLATED");
  add_row
    ~extra:
      [
        ("basis", Json.String "spectral");
        ("bpf_m", Json.Int bpf_m);
        ("bpf_wall_s", Json.Float bpf_wall);
        ("bpf_error_db", Json.Float bpf_err);
        ("speedup", Json.Float speedup);
      ]
    ~method_:"crossover" ~n ~m:cm ~wall_s:cwall ~error_db:cerr ();
  (* Gibbs counter-case: a step switching mid-interval. (The Table I
     drive steps at t = 0, which makes it constant — hence smooth — on
     the open simulation interval; only an interior discontinuity
     produces the Gibbs oscillations that break a global polynomial
     basis.) Equal-m comparison against a fine BPF reference (spectral
     references are unreliable on discontinuous data — that is the
     point). *)
  let step =
    [|
      Source.Step { amplitude = 1.0; delay = 0.4 *. t_end }; Source.Dc 0.0;
    |]
  in
  let m_step_ref = if !smoke_mode then 2048 else 8192 in
  let ref_step =
    Opm.simulate_multi_term
      ~grid:(Grid.uniform ~t_end ~m:m_step_ref)
      mt step
  in
  (* pairs (spectral m, bpf m) at matched-or-smaller BPF wall: on a
     discontinuous source both bases converge algebraically, so the
     equal-m contest is a coin flip — the robust claim is that a BPF
     run costing a fraction of the spectral wall still wins on error *)
  let gibbs_pairs =
    List.map
      (fun (m_sp, m_bp) ->
        let yref_at mid =
          let resampled = Waveform.resample ref_step.Sim_result.outputs mid in
          Mat.init
            (Array.length resampled.Waveform.channels)
            (Array.length mid)
            (fun q i -> resampled.Waveform.channels.(q).(i))
        in
        let mid_sp = Grid.midpoints (Grid.uniform ~t_end ~m:m_sp) in
        let wall_sp, y_sp =
          timed (fun () ->
              let sp =
                Spectral_solver.compile ~grid:(Grid.uniform ~t_end ~m:m_sp) mt
              in
              let z = Spectral_solver.solve_nodal sp step in
              Mat.mul mt.Multi_term.c (Spectral_solver.sample sp z mid_sp))
        in
        let grid_bp = Grid.uniform ~t_end ~m:m_bp in
        let wall_bp, res_bp =
          timed (fun () -> Opm.simulate_multi_term ~grid:grid_bp mt step)
        in
        let y_bp = Mat.mul mt.Multi_term.c res_bp.Sim_result.x in
        let e_sp = rel_err (yref_at mid_sp) y_sp in
        let e_bp = rel_err (yref_at (Grid.midpoints grid_bp)) y_bp in
        Printf.printf "%-16s %6d  %12s  %10.1f   (step drive)\n"
          "gibbs-spectral" m_sp (pp_time wall_sp) e_sp;
        Printf.printf "%-16s %6d  %12s  %10.1f   (step drive)\n" "gibbs-bpf"
          m_bp (pp_time wall_bp) e_bp;
        add_row
          ~extra:[ ("basis", Json.String "spectral") ]
          ~method_:"gibbs-spectral" ~n ~m:m_sp ~wall_s:wall_sp ~error_db:e_sp
          ();
        add_row
          ~extra:[ ("basis", Json.String "bpf") ]
          ~method_:"gibbs-bpf" ~n ~m:m_bp ~wall_s:wall_bp ~error_db:e_bp ();
        e_bp < e_sp && wall_bp < wall_sp)
      [ (32, 128); (64, 512) ]
  in
  let gibbs_holds = List.for_all Fun.id gibbs_pairs in
  Printf.printf
    "Gibbs boundary: bpf beats spectral on the step drive at matched wall: \
     %s\n"
    (if gibbs_holds then "HOLDS" else "VIOLATED");
  (* factor-once contract through the compiled-model seam *)
  let model =
    Compiled_model.compile ~basis:`Spectral
      ~grid:(Grid.uniform ~t_end ~m:32)
      mt
  in
  let queries = if !smoke_mode then 50 else 200 in
  let wall_q, () =
    wall (fun () ->
        for _ = 1 to queries do
          ignore (Compiled_model.solve model smooth : Sim_result.t)
        done)
  in
  let res_q = Compiled_model.solve model smooth in
  let err_q =
    rel_err
      (y_at (Grid.midpoints (Compiled_model.grid model)))
      (Mat.mul mt.Multi_term.c res_q.Sim_result.x)
  in
  let factorisations = Compiled_model.factorisations model in
  Printf.printf
    "compiled spectral: %d queries, %d factorisation(s), %.0f q/s\n" queries
    factorisations
    (float_of_int queries /. wall_q);
  add_row
    ~extra:
      [
        ("basis", Json.String "spectral");
        ("factorisations", Json.Int factorisations);
        ("queries", Json.Int (Compiled_model.queries model));
        ("queries_per_s", Json.Float (float_of_int queries /. wall_q));
      ]
    ~method_:"spectral-compiled" ~n ~m:32
    ~wall_s:(wall_q /. float_of_int queries)
    ~error_db:err_q ();
  flush_json ~table:"basis" ~default_file:"BENCH_basis.json";
  let ok = holds && speedup >= 10.0 && bpf_monotone && gibbs_holds
           && factorisations = 1 in
  Printf.printf "basis gates (crossover >= 10x, monotone bpf, Gibbs, \
                 factor-once): %s%s\n"
    (if ok then "HOLDS" else "VIOLATED")
    (if !smoke_mode && not ok then " (smoke: informational)" else "");
  if (not ok) && not !smoke_mode then exit 1

(* Global options accepted anywhere on the command line:
   [--domains N] sets the process-wide default pool size (same effect
   as OPM_DOMAINS=N); [--json], [--smoke] and [--json-out FILE] control
   the machine-readable output (see the top of this file). *)
let strip_global args =
  let rec go = function
    | "--domains" :: v :: rest ->
        (match int_of_string_opt v with
        | Some d when d >= 1 -> Pool.set_default_domains d
        | Some _ | None ->
            Printf.eprintf
              "bench: warning: --domains %s is not a positive integer; \
               ignored\n%!"
              v);
        go rest
    | "--json" :: rest ->
        json_mode := true;
        go rest
    | "--smoke" :: rest ->
        smoke_mode := true;
        go rest
    | "--json-out" :: v :: rest ->
        json_out := Some v;
        go rest
    | x :: rest -> x :: go rest
    | [] -> []
  in
  go args

let () =
  let args = strip_global (Array.to_list Sys.argv) in
  (* populate the snapshot that rides along in every BENCH_*.json *)
  if !json_mode then Metrics.set_enabled true;
  match args with
  | _ :: "table1" :: _ -> table1 ()
  | _ :: "table2" :: rest ->
      let cli = parse_grid_cli rest in
      let cli =
        (* smoke: n ≈ 10 K MNA unknowns (58·58·2 + 58·58 = 10 092) —
           big enough to exercise the AMD + symbolic-reuse path, small
           enough for CI *)
        if !smoke_mode then
          { nx = 58; ny = 58; nz = 2; loads = 8; paper = false }
        else cli
      in
      table2 cli
  | _ :: "ablation-basis" :: _ -> ablation_basis ()
  | _ :: "ablation-adaptive" :: _ -> ablation_adaptive ()
  | _ :: "ablation-kron" :: _ -> ablation_kron ()
  | _ :: "convergence" :: _ -> convergence ()
  | _ :: "fft-sweep" :: _ -> fft_sweep ()
  | _ :: "parallel-sweep" :: _ -> parallel_sweep ()
  | _ :: "obs-overhead" :: _ -> obs_overhead ()
  | _ :: "window-scaling" :: _ -> window_scaling ()
  | _ :: "rhs-conv" :: _ -> rhs_conv ()
  | _ :: "basis" :: _ -> basis_bench ()
  | _ :: "compiled-qps" :: _ -> compiled_qps ()
  | _ :: "serve" :: _ -> serve_bench ()
  | _ :: "resilience" :: _ -> resilience ()
  | _ :: "micro" :: _ -> micro ()
  | _ :: [] | _ :: "all" :: _ ->
      table1 ();
      table2 default_cli;
      ablation_basis ();
      ablation_adaptive ();
      ablation_kron ();
      convergence ();
      fft_sweep ();
      parallel_sweep ();
      obs_overhead ();
      window_scaling ();
      rhs_conv ();
      basis_bench ();
      compiled_qps ();
      serve_bench ();
      resilience ();
      micro ()
  | _ :: cmd :: _ ->
      Printf.eprintf
        "unknown command %s (try table1, table2, ablation-basis, \
         ablation-adaptive, ablation-kron, convergence, fft-sweep, \
         parallel-sweep, obs-overhead, window-scaling, rhs-conv, basis, \
         compiled-qps, serve, resilience, micro, all)\n"
        cmd;
      exit 1
  | [] -> assert false
