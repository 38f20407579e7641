open Opm_numkit
open Opm_sparse
open Opm_signal
open Opm_core
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

(* observability instruments (no-ops unless metrics are enabled) *)
let m_steps = Metrics.counter "grunwald.steps"

let weights ~alpha k =
  let w = Array.make (k + 1) 1.0 in
  for j = 1 to k do
    w.(j) <- w.(j - 1) *. (1.0 -. ((alpha +. 1.0) /. float_of_int j))
  done;
  w

let solve ~h ~alpha ~t_end (sys : Descriptor.t) sources =
  Trace.with_span "grunwald.solve" @@ fun () ->
  if h <= 0.0 || t_end <= 0.0 then invalid_arg "Grunwald.solve: bad arguments";
  if Array.length sources <> Descriptor.input_count sys then
    invalid_arg "Grunwald.solve: source count mismatch";
  let n = Descriptor.order sys in
  let steps = int_of_float (ceil ((t_end /. h) -. 1e-9)) in
  Metrics.incr ~by:steps m_steps;
  let w = weights ~alpha steps in
  let ha = h ** -.alpha in
  let e = sys.Descriptor.e and a = sys.Descriptor.a in
  let lhs = Csr.add ~alpha:ha ~beta:(-1.0) e a in
  let f = Slu.factor lhs in
  (* −h^{−α}·E is loop-invariant: build it once instead of re-scaling
     the CSR matrix at every time step *)
  let neg_ha_e = Csr.scale (-.ha) e in
  let times = Array.init (steps + 1) (fun k -> float_of_int k *. h) in
  let xs = Array.make (steps + 1) (Vec.zeros n) in
  for k = 1 to steps do
    let hist = Vec.zeros n in
    for j = 1 to k do
      Vec.axpy w.(j) xs.(k - j) hist
    done;
    let rhs = Csr.mul_vec neg_ha_e hist in
    let u = Array.map (fun src -> Source.eval src times.(k)) sources in
    Vec.axpy 1.0 (Mat.mul_vec sys.Descriptor.b u) rhs;
    xs.(k) <- Slu.solve f rhs
  done;
  let q = Descriptor.output_count sys in
  let channels =
    Array.init q (fun i ->
        Array.map (fun x -> Vec.dot (Mat.row sys.Descriptor.c i) x) xs)
  in
  Waveform.make ~labels:sys.Descriptor.output_names times channels
