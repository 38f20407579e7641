(* Seeded inputs of the four workloads and their untimed accuracy
   references. The seed perturbs element values, source amplitudes and
   the sweep base only, never sizes, so every seed does the same work on
   different numbers. [~smoke] shrinks the sizes of the CI gate where
   that keeps the correctness gates meaningful. *)

open Opm_numkit
open Opm_basis
open Opm_signal
open Opm_circuit
open Opm_core
module Json = Opm_obs.Json

let rng seed salt = Random.State.make [| seed; salt |]

(* log-uniform factor in [e^-0.05, e^0.05], about ±5 % *)
let jitter st = exp (0.1 *. (Random.State.float st 1.0 -. 0.5))

let lines f n = String.concat "" (List.init n f)

(* ---- one-shot workloads: opm_sim --method opm ----------------------- *)

type oneshot = {
  t_end : float;
  steps : int;
  probes : string list;
  na : bool;  (* Table II second-order NA stamp instead of MNA *)
}

let grid_spec ~smoke =
  let n = if smoke then 12 else 58 in
  { Power_grid.default_spec with nx = n; ny = n; nz = 2; load_count = 8 }

let oneshot_config ~smoke = function
  | "oneshot-frac-long" ->
      {
        t_end = 2e-5;
        steps = 4096;
        probes = [ "n24" ];
        na = false;
      }
  | "oneshot-grid-na" ->
      let s = grid_spec ~smoke in
      {
        t_end = 1e-9;
        steps = 100;
        probes =
          [
            Power_grid.node_name ~x:0 ~y:0 ~z:0;
            Power_grid.node_name ~x:(s.Power_grid.nx / 2)
              ~y:(s.Power_grid.ny / 2) ~z:0;
          ];
        na = true;
      }
  | name -> invalid_arg ("no one-shot workload " ^ name)

(* Ladder whose shunts alternate C and CPE (alpha = 0.5): a dense
   two-term fractional system, n = sections + 2, driven by the smooth
   1 - cos drive so the spectral reference converges fast. *)
let frac_netlist seed =
  let st = rng seed 1 in
  "* fractional ladder, C and CPE shunts alternating\n\
   V1 in 0 sin(1 -1 200k 1.5707963267948966)\n"
  ^ lines
      (fun i ->
        let k = i + 1 in
        let prev = if k = 1 then "in" else Printf.sprintf "n%d" (k - 1) in
        let r = Printf.sprintf "R%d %s n%d %.17g\n" k prev k (100.0 *. jitter st) in
        if k mod 2 = 1 then
          r ^ Printf.sprintf "C%d n%d 0 %.17g\n" k k (1e-9 *. jitter st)
        else
          r
          ^ Printf.sprintf "P%d n%d 0 q=%.17g alpha=0.5\n" k k
              (1e-6 *. jitter st))
      24

(* The Table II power grid with every element value perturbed. *)
let grid_netlist ~smoke seed =
  let st = rng seed 2 in
  let scale (inst : Netlist.instance) =
    let element =
      match inst.Netlist.element with
      | Netlist.Resistor v -> Netlist.Resistor (v *. jitter st)
      | Netlist.Capacitor v -> Netlist.Capacitor (v *. jitter st)
      | Netlist.Inductor v -> Netlist.Inductor (v *. jitter st)
      | e -> e
    in
    { inst with Netlist.element }
  in
  Power_grid.generate (grid_spec ~smoke)
  |> Netlist.instances |> List.map scale |> Netlist.of_list |> Netlist.to_string

let oneshot_netlist ~smoke seed = function
  | "oneshot-frac-long" -> frac_netlist seed
  | "oneshot-grid-na" -> grid_netlist ~smoke seed
  | name -> invalid_arg ("no one-shot workload " ^ name)

let outputs_of probes = Some (List.map (fun p -> Mna.Node_voltage p) probes)

let stamp cfg net =
  let outputs = outputs_of cfg.probes in
  if cfg.na then Na2.stamp ?outputs net else Mna.stamp ?outputs net

(* outputs of spectral collocation at [m] nodes, sampled through its
   interpolant at [times] *)
let spectral_reference ~t_end ~m mt srcs times =
  let sp = Spectral_solver.compile ~grid:(Grid.uniform ~t_end ~m) mt in
  let y =
    Mat.mul mt.Multi_term.c
      (Spectral_solver.sample sp (Spectral_solver.solve_nodal sp srcs) times)
  in
  Waveform.make times
    (Array.init (fst (Mat.dims y)) (fun r -> Array.init (Array.length times) (Mat.get y r)))

(* Reference waveform on the run's own output grid (the BPF midpoints).
   frac-long: spectral collocation at 48 nodes, which agrees with 64
   nodes to -188 dB. grid-na: trapezoidal MNA at h/20, as in Table II. *)
let oneshot_reference ~smoke name netlist =
  let cfg = oneshot_config ~smoke name in
  let net = Parser.parse_string netlist in
  match name with
  | "oneshot-frac-long" ->
      let mt, srcs = stamp cfg net in
      spectral_reference ~t_end:cfg.t_end ~m:48 mt srcs
        (Waveform.bpf_grid ~t_end:cfg.t_end ~m:cfg.steps)
  | _ ->
      let sys, srcs = Mna.stamp_linear ?outputs:(outputs_of cfg.probes) net in
      Opm_transient.Stepper.solve ~scheme:Opm_transient.Stepper.Trapezoidal
        ~h:(cfg.t_end /. float_of_int cfg.steps /. 20.0)
        ~t_end:cfg.t_end sys srcs

(* accuracy in dB below the reference: the paper's eq. (30) error,
   negated so that it is positive and higher is better; grid-na uses the
   Table II per-channel average *)
let accuracy_db name ~reference w =
  if name = "oneshot-grid-na" then
    -.Error.average_relative_error_db ~reference w
  else -.Error.waveform_error_db ~reference w

(* Parse an [opm_sim] CSV ([t,label…] header, one row per sample). *)
let waveform_of_csv csv =
  match String.split_on_char '\n' csv with
  | [] -> invalid_arg "empty CSV"
  | header :: rows ->
      let labels =
        match String.split_on_char ',' header with
        | _ :: l -> Array.of_list l
        | [] -> [||]
      in
      let rows =
        List.filter_map
          (fun r ->
            if r = "" then None
            else Some (Array.of_list (List.map float_of_string (String.split_on_char ',' r))))
          rows
        |> Array.of_list
      in
      Waveform.make ~labels
        (Array.map (fun r -> r.(0)) rows)
        (Array.init (Array.length labels) (fun c -> Array.map (fun r -> r.(c + 1)) rows))

(* ---- serve workloads: opm_serve /solve ------------------------------ *)

let solve_body ?basis ~t_end ~steps ~probes netlist =
  Json.to_string
    (Json.Obj
       [
         ("netlist", Json.String netlist);
         ( "analysis",
           Json.Obj
             ([
                ("t_end", Json.Float t_end);
                ("steps", Json.Int steps);
                ("probes", Json.List (List.map (fun p -> Json.String p) probes));
              ]
             @ match basis with Some b -> [ ("basis", Json.String b) ] | None -> [])
         );
       ])

(* serve-hot-sweep: one RLC ladder (series R, every tenth series element
   an inductor, C shunts, resistive load), n = sections + 12 on the
   order-1 fast path; requests differ only in the source amplitude, so
   every request after the first finds the compiled plant. 16 bodies per
   seed are cycled so each response can be checked against a precomputed
   in-process answer. *)
let hot_sections ~smoke = if smoke then 20 else 100

let hot_bodies ~smoke seed =
  let st = rng seed 3 in
  let n = hot_sections ~smoke in
  let plant =
    lines
      (fun i ->
        let k = i + 1 in
        let prev = if k = 1 then "in" else Printf.sprintf "n%d" (k - 1) in
        (if k mod 10 = 0 then
           Printf.sprintf "L%d %s n%d %.17g\n" k prev k (1e-5 *. jitter st)
         else Printf.sprintf "R%d %s n%d %.17g\n" k prev k (100.0 *. jitter st))
        ^ Printf.sprintf "C%d n%d 0 %.17g\n" k k (1e-9 *. jitter st))
      n
    ^ Printf.sprintf "RL n%d 0 %.17g\n" n (1e3 *. jitter st)
  in
  let probes = [ Printf.sprintf "n%d" (n / 2); Printf.sprintf "n%d" n ] in
  Array.init 16 (fun _ ->
      let amp = 0.5 +. Random.State.float st 1.0 in
      solve_body ~t_end:1e-3
        ~steps:(if smoke then 128 else 512)
        ~probes
        (Printf.sprintf "V1 in 0 sin(0 %.17g 2k)\n%s" amp plant))

(* serve-cold-spectral: a CPE ladder swept over its load resistor, so
   every request stamps a distinct plant: a cache miss, a spectral
   compile (dense LU of the (n·m)² collocation operator) and, once the
   cache is full, an eviction. *)
let cold_sections ~smoke = if smoke then 4 else 8

let cold_body ~smoke seed =
  let st = rng seed 4 in
  let n = cold_sections ~smoke in
  let plant =
    lines
      (fun i ->
        let k = i + 1 in
        let prev = if k = 1 then "in" else Printf.sprintf "n%d" (k - 1) in
        Printf.sprintf "R%d %s n%d %.17g\nP%d n%d 0 q=%.17g alpha=0.5\n" k prev
          k (1e3 *. jitter st) k k (1e-6 *. jitter st))
      n
  in
  let load = 1e3 *. jitter st in
  fun index ->
    solve_body ~basis:"spectral" ~t_end:1e-4
      ~steps:(if smoke then 16 else 32)
      ~probes:[ Printf.sprintf "n%d" n ]
      (Printf.sprintf "V1 in 0 sin(1 -1 15k 1.5707963267948966)\n%sRL n%d 0 %.17g\n"
         plant n
         (load *. (1.0 +. (1e-4 *. float_of_int index))))

(* Accuracy of the in-process answer to [body]: hot against trapezoidal
   MNA at h/16, cold against spectral collocation at twice the nodes. *)
let serve_accuracy_db body =
  let p = Opm_serve.Protocol.parse_request body in
  let a = p.Opm_serve.Protocol.analysis in
  let outputs = Opm_serve.Protocol.probe_outputs a in
  let mt, srcs = Mna.stamp ?outputs p.Opm_serve.Protocol.netlist in
  let grid = Grid.uniform ~t_end:a.t_end ~m:a.steps in
  let y = (Opm.simulate_multi_term ~basis:a.basis ~grid mt srcs).Sim_result.outputs in
  let reference =
    match a.basis with
    | `Bpf ->
        let sys, srcs = Mna.stamp_linear ?outputs p.Opm_serve.Protocol.netlist in
        Opm_transient.Stepper.solve ~scheme:Opm_transient.Stepper.Trapezoidal
          ~h:(a.t_end /. float_of_int a.steps /. 16.0)
          ~t_end:a.t_end sys srcs
    | `Spectral ->
        spectral_reference ~t_end:a.t_end ~m:(2 * a.steps) mt srcs (Grid.midpoints grid)
  in
  -.Error.waveform_error_db ~reference y
