open Opm_numkit
open Opm_sparse
open Opm_signal
open Opm_core
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

(* observability instruments (no-ops unless metrics are enabled) *)
let m_steps = Metrics.counter "stepper.steps"

type scheme = Backward_euler | Trapezoidal | Gear2

let check_args ~h ~t_end (sys : Descriptor.t) sources =
  if h <= 0.0 then invalid_arg "Stepper.solve: h <= 0";
  if t_end <= 0.0 then invalid_arg "Stepper.solve: t_end <= 0";
  if Array.length sources <> Descriptor.input_count sys then
    invalid_arg "Stepper.solve: source count mismatch"

let eval_inputs sources t = Array.map (fun src -> Source.eval src t) sources

(* advance with x(0) = 0, streaming: only the one (two for Gear) most
   recent state vectors are live — [record k x] observes each state as
   it is produced, so a paper-scale run (n ≈ 10⁵, thousands of steps)
   costs O(n) state memory instead of O(n·steps).

   [?symbolic] shares one sparse symbolic analysis across every
   iteration-matrix factorisation reached through it: the schemes'
   pencils all have the union pattern of E and A, so Gear's two
   matrices — and the other schemes' pencils when a caller passes one
   hint across schemes, as the Table II bench does — pay ordering and
   reach discovery once ({!Slu.factor_hinted}). *)
let run ?symbolic ~scheme ~h ~t_end ~record (sys : Descriptor.t) sources =
  Trace.with_span "stepper.run" @@ fun () ->
  let n = Descriptor.order sys in
  let steps = int_of_float (ceil ((t_end /. h) -. 1e-9)) in
  Metrics.incr ~by:steps m_steps;
  let e = sys.Descriptor.e and a = sys.Descriptor.a in
  let b = sys.Descriptor.b in
  let bu t = Mat.mul_vec b (eval_inputs sources t) in
  let times = Array.init (steps + 1) (fun k -> float_of_int k *. h) in
  let hint = match symbolic with Some r -> r | None -> ref None in
  let factor lhs = Slu.factor_hinted ~hint lhs in
  record 0 (Vec.zeros n);
  (match scheme with
  | Backward_euler ->
      (* (E/h − A) x_k = (E/h) x_{k−1} + B u_k *)
      let lhs = Csr.add ~alpha:(1.0 /. h) ~beta:(-1.0) e a in
      let f = factor lhs in
      let e_h = Csr.scale (1.0 /. h) e in
      let x = ref (Vec.zeros n) in
      for k = 1 to steps do
        let rhs = Csr.mul_vec e_h !x in
        Vec.axpy 1.0 (bu times.(k)) rhs;
        x := Slu.solve f rhs;
        record k !x
      done
  | Trapezoidal ->
      (* (E/h − A/2) x_k = (E/h + A/2) x_{k−1} + B (u_k + u_{k−1})/2 *)
      let lhs = Csr.add ~alpha:(1.0 /. h) ~beta:(-0.5) e a in
      let rhs_mat = Csr.add ~alpha:(1.0 /. h) ~beta:0.5 e a in
      let f = factor lhs in
      let x = ref (Vec.zeros n) in
      for k = 1 to steps do
        let rhs = Csr.mul_vec rhs_mat !x in
        let u_mid = Vec.scale 0.5 (Vec.add (bu times.(k)) (bu times.(k - 1))) in
        Vec.axpy 1.0 u_mid rhs;
        x := Slu.solve f rhs;
        record k !x
      done
  | Gear2 ->
      (* (3E/(2h) − A) x_k = (E/h)(2 x_{k−1} − x_{k−2}/2) + B u_k;
         first step backward Euler *)
      let lhs2 = Csr.add ~alpha:(1.5 /. h) ~beta:(-1.0) e a in
      let f2 = factor lhs2 in
      let lhs1 = Csr.add ~alpha:(1.0 /. h) ~beta:(-1.0) e a in
      let f1 = factor lhs1 in
      let x1 = ref (Vec.zeros n) (* x_{k−1} *) in
      let x2 = ref (Vec.zeros n) (* x_{k−2} *) in
      for k = 1 to steps do
        if k = 1 then begin
          let rhs = Csr.mul_vec (Csr.scale (1.0 /. h) e) !x1 in
          Vec.axpy 1.0 (bu times.(k)) rhs;
          x2 := !x1;
          x1 := Slu.solve f1 rhs;
          record k !x1
        end
        else begin
          let hist =
            Vec.sub (Vec.scale (2.0 /. h) !x1) (Vec.scale (0.5 /. h) !x2)
          in
          let rhs = Csr.mul_vec e hist in
          Vec.axpy 1.0 (bu times.(k)) rhs;
          x2 := !x1;
          x1 := Slu.solve f2 rhs;
          record k !x1
        end
      done);
  times

let solve ?symbolic ~scheme ~h ~t_end sys sources =
  check_args ~h ~t_end sys sources;
  let c = sys.Descriptor.c in
  let q, _n = Mat.dims c in
  let c_rows = Array.init q (Mat.row c) in
  let steps = int_of_float (ceil ((t_end /. h) -. 1e-9)) in
  let channels = Array.init q (fun _ -> Array.make (steps + 1) 0.0) in
  let record k x =
    for i = 0 to q - 1 do
      channels.(i).(k) <- Vec.dot c_rows.(i) x
    done
  in
  let times = run ?symbolic ~scheme ~h ~t_end ~record sys sources in
  Waveform.make ~labels:sys.Descriptor.output_names times channels
