open Opm_numkit
open Opm_signal
open Opm_core

type stats = {
  accepted : int;
  rejected : int;
  factorizations : int;
}

let solve ?(tol = 1e-4) ?h_init ?h_min ?h_max ~t_end (sys : Descriptor.t)
    sources =
  if t_end <= 0.0 then invalid_arg "Adaptive_trap.solve: t_end <= 0";
  let n = Descriptor.order sys in
  if Array.length sources <> Descriptor.input_count sys then
    invalid_arg "Adaptive_trap.solve: source count mismatch";
  let h_init = Option.value h_init ~default:(t_end /. 100.0) in
  let h_min = Option.value h_min ~default:(t_end *. 1e-9) in
  let h_max = Option.value h_max ~default:(t_end /. 4.0) in
  let e = Descriptor.e_dense sys and a = Descriptor.a_dense sys in
  let b = sys.Descriptor.b in
  let factorizations = ref 0 in
  let cache : (float * (Lu.t * Mat.t)) list ref = ref [] in
  (* one trapezoidal step needs (E/h − A/2)⁻¹ and (E/h + A/2) *)
  let ops_for h =
    match List.assoc_opt h !cache with
    | Some ops -> ops
    | None ->
        let lhs = Mat.sub (Mat.scale (1.0 /. h) e) (Mat.scale 0.5 a) in
        let rhs = Mat.add (Mat.scale (1.0 /. h) e) (Mat.scale 0.5 a) in
        let ops = (Lu.factor lhs, rhs) in
        incr factorizations;
        cache := (h, ops) :: List.filteri (fun i _ -> i < 7) !cache;
        ops
  in
  let bu t = Mat.mul_vec b (Array.map (fun src -> Source.eval src t) sources) in
  (* backward Euler for the very first step: the zero initial state is
     in general inconsistent with the algebraic constraints of a DAE
     (e.g. a voltage source stepping at t = 0), and the trapezoidal
     rule carries that inconsistency as an undamped ±2 oscillation of
     the algebraic variables; one BE step projects onto the consistent
     manifold — the standard simulator practice *)
  let be_cache : (float * Lu.t) list ref = ref [] in
  let be_step x t h =
    let lu =
      match List.assoc_opt h !be_cache with
      | Some f -> f
      | None ->
          let f = Lu.factor (Mat.sub (Mat.scale (1.0 /. h) e) a) in
          incr factorizations;
          be_cache := (h, f) :: !be_cache;
          f
    in
    let rhs = Mat.mul_vec (Mat.scale (1.0 /. h) e) x in
    Vec.axpy 1.0 (bu (t +. h)) rhs;
    Lu.solve lu rhs
  in
  let trap_step x t h =
    let lu, rhs_mat = ops_for h in
    let rhs = Mat.mul_vec rhs_mat x in
    Vec.axpy 0.5 (bu t) rhs;
    Vec.axpy 0.5 (bu (t +. h)) rhs;
    Lu.solve lu rhs
  in
  let step x t h = if t = 0.0 then be_step x t h else trap_step x t h in
  let times = ref [ 0.0 ] and states = ref [ Vec.zeros n ] in
  let t = ref 0.0 and x = ref (Vec.zeros n) in
  let h = ref (Float.min h_init h_max) in
  let accepted = ref 0 and rejected = ref 0 in
  while !t < t_end -. (1e-12 *. t_end) do
    let h_trial = Float.min !h (t_end -. !t) in
    let x_full = step !x !t h_trial in
    let hh = 0.5 *. h_trial in
    let x_h1 = step !x !t hh in
    let x_h2 = step x_h1 (!t +. hh) hh in
    let scale =
      Float.max 1.0 (Float.max (Vec.norm_inf x_full) (Vec.norm_inf x_h2))
    in
    (* trapezoidal is order 2: the pair differs by ~3/4 of the full
       step's local error *)
    let err = Vec.max_abs_diff x_full x_h2 /. scale in
    if err <= tol || h_trial <= h_min *. 1.000001 then begin
      times := (!t +. h_trial) :: (!t +. hh) :: !times;
      states := x_h2 :: x_h1 :: !states;
      t := !t +. h_trial;
      x := x_h2;
      incr accepted;
      let growth = 0.9 *. ((tol /. Float.max err 1e-300) ** (1.0 /. 3.0)) in
      if growth >= 2.0 && 2.0 *. h_trial <= h_max then h := 2.0 *. h_trial
      else h := h_trial
    end
    else begin
      incr rejected;
      h := Float.max h_min (0.5 *. h_trial)
    end
  done;
  let times = Array.of_list (List.rev !times) in
  let states = Array.of_list (List.rev !states) in
  let q = Descriptor.output_count sys in
  let channels =
    Array.init q (fun i ->
        Array.map (fun xv -> Vec.dot (Mat.row sys.Descriptor.c i) xv) states)
  in
  let waveform =
    Waveform.make ~labels:sys.Descriptor.output_names times channels
  in
  ( waveform,
    {
      accepted = Array.length times - 1;
      rejected = !rejected;
      factorizations = !factorizations;
    } )
