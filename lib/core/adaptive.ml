open Opm_numkit
open Opm_basis
open Opm_signal
open Opm_robust
module Metrics = Opm_obs.Metrics
module Trace = Opm_obs.Trace

(* observability instruments (no-ops unless metrics are enabled) *)
let m_accepted = Metrics.counter "adaptive.steps.accepted"
let m_rejected = Metrics.counter "adaptive.steps.rejected"
let m_halved = Metrics.counter "adaptive.steps.halved"

type stats = {
  accepted : int;
  rejected : int;
  factorizations : int;
}

(* state of the incremental column recurrence:
   rhs_i = B·ū_i − (4/h_i)·E·(−1)^i·salt, where salt = Σ_{j<i} (−1)^j x_j *)
type walk = {
  mutable t : float;
  mutable index : int;  (* column index i *)
  mutable salt : Vec.t;  (* alternating sum of accepted columns *)
}

(* consecutive halvings allowed when a trial step comes back NaN/Inf
   before the driver gives up with a structured error *)
let max_non_finite_retries = 3

let solve ?(tol = 1e-4) ?health ?budget ?h_init ?h_min ?h_max ~t_end
    (sys : Descriptor.t) sources =
  Trace.with_span "adaptive.solve" @@ fun () ->
  if t_end <= 0.0 then invalid_arg "Adaptive.solve: t_end <= 0";
  let n = Descriptor.order sys in
  let p = Descriptor.input_count sys in
  if Array.length sources <> p then
    invalid_arg "Adaptive.solve: source count mismatch";
  let h_init = Option.value h_init ~default:(t_end /. 100.0) in
  let h_min = Option.value h_min ~default:(t_end *. 1e-9) in
  let h_max = Option.value h_max ~default:(t_end /. 4.0) in
  let e = Descriptor.e_dense sys and a = Descriptor.a_dense sys in
  let factorizations = ref 0 in
  (* small cache keyed by the step length: repeated h values (e.g. after
     the controller settles) reuse their factorisation *)
  let cache : (float * Lu.t) list ref = ref [] in
  let factor_for h =
    match List.assoc_opt h !cache with
    | Some f -> f
    | None ->
        (match budget with
        | Some b ->
            Budget.charge_factor ~bytes:(n * n * 8) b ~site:"adaptive.factor"
        | None -> ());
        let m = Mat.sub (Mat.scale (2.0 /. h) e) a in
        let f =
          match Lu.factor m with
          | f -> f
          | exception Lu.Singular k ->
              Opm_error.raise_
                (Opm_error.Singular_pencil
                   { column = 0; step = k; pivot = 0.0; name = None })
        in
        incr factorizations;
        cache := (h, f) :: List.filteri (fun i _ -> i < 7) !cache;
        f
  in
  let bu_avg t0 t1 =
    (* B · (interval average of u) *)
    let u = Array.map (fun src -> Source.average src t0 t1) sources in
    Mat.mul_vec sys.Descriptor.b u
  in
  (* one OPM column with step h from walk state w (not mutated) *)
  let column ~index ~salt ~t h =
    let rhs = bu_avg t (t +. h) in
    (* subtract (4/h)·E·(−1)^index·salt *)
    let sign = if index land 1 = 1 then -1.0 else 1.0 in
    let coupling = Mat.mul_vec e salt in
    Vec.axpy (-4.0 /. h *. sign) coupling rhs;
    Lu.solve (factor_for h) rhs
  in
  let advance_salt ~index ~salt x =
    (* salt' = salt + (−1)^index · x *)
    let s = Vec.copy salt in
    Vec.axpy (if index land 1 = 1 then -1.0 else 1.0) x s;
    s
  in
  let w = { t = 0.0; index = 0; salt = Vec.zeros n } in
  let steps = ref [] and cols = ref [] in
  let accepted = ref 0 and rejected = ref 0 in
  let h = ref (Float.min h_init h_max) in
  (* consecutive non-finite trials at the current location *)
  let nf_retries = ref 0 in
  while w.t < t_end -. (1e-12 *. t_end) do
    (match budget with
    | Some b -> Budget.check_deadline_now b ~site:"adaptive.step"
    | None -> ());
    let h_trial = Float.min !h (t_end -. w.t) in
    (* full step *)
    let x_full = column ~index:w.index ~salt:w.salt ~t:w.t h_trial in
    (* two half steps *)
    let hh = 0.5 *. h_trial in
    let x_h1 = column ~index:w.index ~salt:w.salt ~t:w.t hh in
    let salt' = advance_salt ~index:w.index ~salt:w.salt x_h1 in
    let x_h2 =
      column ~index:(w.index + 1) ~salt:salt' ~t:(w.t +. hh) hh
    in
    if
      not
        (Guard.is_finite x_full && Guard.is_finite x_h1
        && Guard.is_finite x_h2)
    then begin
      (* a poisoned trial must not reach the error estimate (NaN
         comparisons would silently reject forever): refine the local
         grid — halve the step — a bounded number of times, then give
         up with a structured error instead of propagating garbage *)
      incr nf_retries;
      Metrics.incr m_halved;
      if !nf_retries > max_non_finite_retries then begin
        let worst =
          List.find (fun v -> not (Guard.is_finite v))
            [ x_full; x_h1; x_h2 ]
        in
        let nans, infs = Guard.count_non_finite worst in
        Opm_error.raise_
          (Opm_error.Non_finite
             { stage = "adaptive"; column = Some w.index; nans; infs })
      end;
      Option.iter
        (fun hl ->
          Health.record_event hl
            (Health.Step_halved { t = w.t; h = hh; retry = !nf_retries }))
        health;
      incr rejected;
      h := Float.max h_min hh
    end
    else begin
      nf_retries := 0;
      (* both solutions estimate the same quantity — the BPF average of x
         over [t, t+h] — as x_full and (x_h1 + x_h2)/2; their difference
         is the Richardson local-error estimate *)
      let x_halves = Vec.scale 0.5 (Vec.add x_h1 x_h2) in
      let scale =
        Float.max 1.0 (Float.max (Vec.norm_inf x_full) (Vec.norm_inf x_h2))
      in
      let err = Vec.max_abs_diff x_full x_halves /. scale in
      if err <= tol || h_trial <= h_min *. 1.000001 then begin
        if err > tol then
          Logs.warn (fun k ->
              k "Adaptive.solve: step %g at t=%g accepted above tolerance (err %g)"
                h_trial w.t err);
        (* accept the two half-step columns (the more accurate solution) *)
        steps := hh :: hh :: !steps;
        cols := x_h2 :: x_h1 :: !cols;
        (match health with
        | None -> ()
        | Some hl ->
            Health.record_vec hl x_h1;
            Health.record_vec hl x_h2);
        w.t <- w.t +. h_trial;
        w.index <- w.index + 2;
        w.salt <- advance_salt ~index:(w.index - 1) ~salt:salt' x_h2;
        incr accepted;
        (* grow the step when comfortably inside the tolerance; steps move
           by factors of two only, so the LU cache keyed on h gets hits *)
        let growth = 0.9 *. ((tol /. Float.max err 1e-300) ** 0.5) in
        if growth >= 2.0 && 2.0 *. h_trial <= h_max then h := 2.0 *. h_trial
        else h := h_trial
      end
      else begin
        incr rejected;
        h := Float.max h_min (0.5 *. h_trial)
      end
    end
  done;
  Metrics.incr ~by:!accepted m_accepted;
  Metrics.incr ~by:!rejected m_rejected;
  let steps = Array.of_list (List.rev !steps) in
  let cols = Array.of_list (List.rev !cols) in
  let m = Array.length steps in
  let grid = Grid.adaptive steps in
  let x = Mat.zeros n m in
  Array.iteri (fun i col -> Mat.set_col x i col) cols;
  let result =
    Sim_result.make ?health ~grid ~x ~c:sys.Descriptor.c
      ~state_names:sys.Descriptor.state_names
      ~output_names:sys.Descriptor.output_names ()
  in
  (result, { accepted = m; rejected = !rejected; factorizations = !factorizations })
