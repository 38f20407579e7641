type t =
  | Dc of float
  | Step of { amplitude : float; delay : float }
  | Pulse of {
      low : float;
      high : float;
      delay : float;
      width : float;
      period : float;
    }
  | Sine of { amplitude : float; freq_hz : float; phase : float; offset : float }
  | Exp_decay of { amplitude : float; tau : float }
  | Ramp of { slope : float; delay : float }
  | Pwl of (float * float) list
  | Fn of (float -> float)

let pwl points =
  let rec strictly_increasing = function
    | (t0, _) :: ((t1, _) :: _ as rest) ->
        if t0 >= t1 then invalid_arg "Source.pwl: times must strictly increase"
        else strictly_increasing rest
    | [ _ ] | [] -> ()
  in
  if points = [] then invalid_arg "Source.pwl: empty point list";
  strictly_increasing points;
  Pwl points

let eval_pwl points t =
  let rec go = function
    | [] -> 0.0
    | [ (_, v) ] -> v
    | (t0, v0) :: ((t1, v1) :: _ as rest) ->
        if t < t0 then v0
        else if t <= t1 then v0 +. ((v1 -. v0) *. (t -. t0) /. (t1 -. t0))
        else go rest
  in
  match points with
  | (t0, v0) :: _ when t < t0 -> v0
  | _ -> go points

let pulse_value ~low ~high ~delay ~width ~period t =
  if t < delay then low
  else
    let local =
      if Float.is_finite period && period > 0.0 then
        Float.rem (t -. delay) period
      else t -. delay
    in
    if local < width then high else low

let eval src t =
  match src with
  | Dc v -> v
  | Step { amplitude; delay } -> if t >= delay then amplitude else 0.0
  | Pulse { low; high; delay; width; period } ->
      pulse_value ~low ~high ~delay ~width ~period t
  | Sine { amplitude; freq_hz; phase; offset } ->
      offset +. (amplitude *. sin ((2.0 *. Float.pi *. freq_hz *. t) +. phase))
  | Exp_decay { amplitude; tau } ->
      if t < 0.0 then 0.0 else amplitude *. exp (-.t /. tau)
  | Ramp { slope; delay } -> if t >= delay then slope *. (t -. delay) else 0.0
  | Pwl points -> eval_pwl points t
  | Fn f -> f t

(* adaptive Simpson, used only for the opaque Fn variant; [force] levels
   of subdivision are mandatory so discontinuous integrands (square
   waves) cannot fool the error estimate at the top of the recursion *)
let rec adaptive_simpson f a b fa fm fb whole depth force =
  let m = 0.5 *. (a +. b) in
  let lm = 0.5 *. (a +. m) and rm = 0.5 *. (m +. b) in
  let flm = f lm and frm = f rm in
  let left = (m -. a) /. 6.0 *. (fa +. (4.0 *. flm) +. fm) in
  let right = (b -. m) /. 6.0 *. (fm +. (4.0 *. frm) +. fb) in
  (* a non-finite panel can never satisfy the error test, so without the
     finiteness bail-out a NaN-returning integrand would force the full
     2^depth recursion; propagate the NaN immediately instead *)
  if
    depth <= 0
    || not (Float.is_finite (left +. right))
    || (force <= 0 && Float.abs (left +. right -. whole) < 1e-12)
  then left +. right
  else
    adaptive_simpson f a m fa flm fm left (depth - 1) (force - 1)
    +. adaptive_simpson f m b fm frm fb right (depth - 1) (force - 1)

let integral_fn f a b =
  let fa = f a and fb = f b and fm = f (0.5 *. (a +. b)) in
  let whole = (b -. a) /. 6.0 *. (fa +. (4.0 *. fm) +. fb) in
  adaptive_simpson f a b fa fm fb whole 40 8

(* exact integral of the source over [a, b] *)
let rec integral src a b =
  if b < a then -.integral src b a
  else if a = b then 0.0
  else
    match src with
    | Dc v -> v *. (b -. a)
    | Step { amplitude; delay } ->
        if b <= delay then 0.0
        else amplitude *. (b -. Float.max a delay)
    | Pulse { low; high; delay; width; period } ->
        if b <= delay then low *. (b -. a)
        else if a < delay then
          (low *. (delay -. a))
          +. integral src delay b
        else if Float.is_finite period && period > 0.0 then begin
          (* integrate over whole periods then the remainder *)
          let shift t = t -. delay in
          let one_period = (high *. width) +. (low *. (period -. width)) in
          let frac t =
            (* integral of one period pattern over [0, t], 0 <= t <= period *)
            if t <= width then high *. t
            else (high *. width) +. (low *. (t -. width))
          in
          let cum t =
            (* integral over [delay, delay+t] *)
            let k = floor (t /. period) in
            (k *. one_period) +. frac (t -. (k *. period))
          in
          cum (shift b) -. cum (shift a)
        end
        else begin
          (* one-shot pulse *)
          let hi_start = delay and hi_end = delay +. width in
          let overlap lo hi = Float.max 0.0 (Float.min b hi -. Float.max a lo) in
          (high *. overlap hi_start hi_end)
          +. (low *. ((b -. a) -. overlap hi_start hi_end))
        end
    | Sine { amplitude; freq_hz; phase; offset } ->
        let w = 2.0 *. Float.pi *. freq_hz in
        if w = 0.0 then (offset +. (amplitude *. sin phase)) *. (b -. a)
        else
          (offset *. (b -. a))
          +. (amplitude /. w *. (cos ((w *. a) +. phase) -. cos ((w *. b) +. phase)))
    | Exp_decay { amplitude; tau } ->
        let a' = Float.max a 0.0 in
        if b <= 0.0 then 0.0
        else amplitude *. tau *. (exp (-.a' /. tau) -. exp (-.b /. tau))
    | Ramp { slope; delay } ->
        if b <= delay then 0.0
        else
          let a' = Float.max a delay in
          0.5 *. slope *. (((b -. delay) ** 2.0) -. ((a' -. delay) ** 2.0))
    | Pwl points ->
        (* clip every linear segment to [a, b]; trapezoid areas *)
        let seg_area t0 v0 t1 v1 =
          let lo = Float.max a t0 and hi = Float.min b t1 in
          if hi <= lo then 0.0
          else
            let value t = v0 +. ((v1 -. v0) *. (t -. t0) /. (t1 -. t0)) in
            0.5 *. (value lo +. value hi) *. (hi -. lo)
        in
        let rec go acc = function
          | (t0, v0) :: ((t1, v1) :: _ as rest) ->
              go (acc +. seg_area t0 v0 t1 v1) rest
          | [ (t_last, v_last) ] ->
              (* constant extrapolation to the right *)
              if b > t_last then acc +. (v_last *. (b -. Float.max a t_last))
              else acc
          | [] -> acc
        in
        let head_part =
          match points with
          | (t0, v0) :: _ when a < t0 -> v0 *. (Float.min b t0 -. a)
          | _ -> 0.0
        in
        head_part +. go 0.0 points
    | Fn f -> integral_fn f a b

let average src a b =
  if a = b then eval src a else integral src a b /. (b -. a)
