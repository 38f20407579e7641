(* Lanczos approximation, g = 7, 9 coefficients (Boost/GSL standard set) *)
let lanczos_g = 7.0

let lanczos_coefficients =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let lgamma x =
  if x <= 0.0 then invalid_arg "Special.lgamma: requires x > 0";
  if x < 0.5 then
    (* reflection to keep the Lanczos sum in its accurate range *)
    log (Float.pi /. sin (Float.pi *. x))
    -. (let y = 1.0 -. x in
        let s = ref lanczos_coefficients.(0) in
        for i = 1 to 8 do
          s := !s +. (lanczos_coefficients.(i) /. (y +. float_of_int i -. 1.0))
        done;
        let t = y +. lanczos_g -. 0.5 in
        (0.5 *. log (2.0 *. Float.pi)) +. ((y -. 0.5) *. log t) -. t +. log !s)
  else
    let s = ref lanczos_coefficients.(0) in
    for i = 1 to 8 do
      s := !s +. (lanczos_coefficients.(i) /. (x +. float_of_int i -. 1.0))
    done;
    let t = x +. lanczos_g -. 0.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. ((x -. 0.5) *. log t) -. t +. log !s

let gamma x =
  if x > 0.0 then exp (lgamma x)
  else if Float.is_integer x then Float.nan
  else
    (* Γ(x) Γ(1−x) = π / sin(πx) *)
    Float.pi /. (sin (Float.pi *. x) *. exp (lgamma (1.0 -. x)))

(* regularised incomplete gamma: series for x < a+1, continued fraction
   otherwise (Numerical Recipes gser/gcf) *)
let gammp_series a x =
  let ap = ref a in
  let sum = ref (1.0 /. a) in
  let del = ref !sum in
  let continue_ = ref true in
  let iter = ref 0 in
  while !continue_ && !iter < 1000 do
    incr iter;
    ap := !ap +. 1.0;
    del := !del *. x /. !ap;
    sum := !sum +. !del;
    if Float.abs !del < Float.abs !sum *. 1e-16 then continue_ := false
  done;
  !sum *. exp ((-.x) +. (a *. log x) -. lgamma a)

let gammq_cf a x =
  let tiny = 1e-300 in
  let b = ref (x +. 1.0 -. a) in
  let c = ref (1.0 /. tiny) in
  let d = ref (1.0 /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let continue_ = ref true in
  while !continue_ && !i < 1000 do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.0;
    d := (an *. !d) +. !b;
    if Float.abs !d < tiny then d := tiny;
    c := !b +. (an /. !c);
    if Float.abs !c < tiny then c := tiny;
    d := 1.0 /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if Float.abs (del -. 1.0) < 1e-16 then continue_ := false;
    incr i
  done;
  exp ((-.x) +. (a *. log x) -. lgamma a) *. !h

let gammp a x =
  if a <= 0.0 || x < 0.0 then invalid_arg "Special.gammp: bad arguments";
  if x = 0.0 then 0.0
  else if x < a +. 1.0 then gammp_series a x
  else 1.0 -. gammq_cf a x

let gammq a x = 1.0 -. gammp a x

let erf x =
  if x >= 0.0 then gammp 0.5 (x *. x) else -.gammp 0.5 (x *. x)

let erfc x = if x >= 0.0 then gammq 0.5 (x *. x) else 2.0 -. gammq 0.5 (x *. x)

let lgamma_abs g =
  (* log |Γ(g)|, any non-pole g *)
  if g > 0.0 then lgamma g
  else log (Float.abs (Float.pi /. sin (Float.pi *. g))) -. lgamma (1.0 -. g)

(* E_{α,β}(z) by its power series with Kahan summation; the terms
   z^k / Γ(αk+β) are computed in log space to dodge overflow. The
   series runs until its terms are negligible, with no term cap: the
   terms peak near k ≈ |z|^{1/α}/α, already ≈ 340 for E_{0.3}(4). *)
let ml_series ~alpha ~beta z =
  let sum = ref 0.0 and comp = ref 0.0 in
  let add v =
    let y = v -. !comp in
    let t = !sum +. y in
    comp := t -. !sum -. y;
    sum := t
  in
  let log_abs_z = if z = 0.0 then neg_infinity else log (Float.abs z) in
  let k = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let fk = float_of_int !k in
    let g = alpha *. fk +. beta in
    let term =
      if g <= 0.0 && Float.is_integer g then 0.0 (* 1/Γ at a pole is 0 *)
      else begin
        let log_mag = (fk *. log_abs_z) -. lgamma_abs g in
        let mag = if !k = 0 && z = 0.0 then 1.0 /. gamma beta else exp log_mag in
        let gamma_sign = if gamma g < 0.0 then -1.0 else 1.0 in
        let z_sign = if z < 0.0 && !k land 1 = 1 then -1.0 else 1.0 in
        z_sign *. gamma_sign *. mag
      end
    in
    add term;
    if
      (!k > 4 && Float.abs term < 1e-17 *. Float.max 1.0 (Float.abs !sum))
      || not (Float.is_finite !sum)
    then continue_ := false;
    incr k
  done;
  !sum

(* asymptotic expansion for z → −∞, 0 < α < 2:
   E_{α,β}(z) ≈ Σ_poles (1/α)·s^{1−β}·e^s − Σ_{k=1}^{K} z^{−k} / Γ(β − αk).
   For 1 < α < 2 the Laplace-inversion integrand s^{α−β}/(s^α − z) has
   the two poles s = |z|^{1/α}·e^{±iπ/α}; their residues decay only
   like exp(cos(π/α)·|z|^{1/α}), which is not small for α near 2.
   Once β − αk < 0 the sum stops where the envelope
   Γ(1 − β + αk)/(π·|z|^k) of the terms (|1/Γ(g)| = |sin πg|·Γ(1−g)/π)
   starts to grow, not at the first growing term: a term next to a pole
   of Γ is small, so the term after it grows long before the expansion
   has converged. *)
let ml_asymptotic ~alpha ~beta z =
  let residues =
    if alpha > 1.0 then begin
      let r = Float.abs z ** (1.0 /. alpha) and th = Float.pi /. alpha in
      let s = { Complex.re = r *. cos th; im = r *. sin th } in
      let v = Complex.mul (Complex.exp s) (Complex.pow s { Complex.re = 1.0 -. beta; im = 0.0 }) in
      2.0 /. alpha *. v.Complex.re
    end
    else 0.0
  in
  let sum = ref residues in
  let prev = ref infinity in
  (try
     for k = 1 to 50 do
       let g = beta -. (alpha *. float_of_int k) in
       if g < 0.0 then begin
         let envelope = lgamma (1.0 -. g) -. (float_of_int k *. log (Float.abs z)) in
         if envelope > !prev then raise Exit;
         prev := envelope
       end;
       let inv_gamma = if Float.is_integer g && g <= 0.0 then 0.0 else 1.0 /. gamma g in
       sum := !sum -. (inv_gamma *. (z ** float_of_int (-k)))
     done
   with Exit -> ());
  !sum

(* E_{α,β}(z) for z < 0 and 0 < α < 1 as the inverse Laplace transform
   of s^{α−β}/(s^α − z) at t = 1, by the trapezoidal rule on the
   parabolic Hankel contour s(u) = μ(1 + iu)² with Weideman and
   Trefethen's h = 3/N, μ = πN/12. For α < 1 the integrand has no pole
   on the principal sheet, so the integral is the whole value, and
   unlike the series it does not cancel: N = 24 gives ≈ 1e-13. The
   contour is symmetric, so the nodes u ≥ 0 suffice. *)
let ml_contour ~alpha ~beta z =
  let n = 24 in
  let h = 3.0 /. float_of_int n and mu = Float.pi *. float_of_int n /. 12.0 in
  let re x = { Complex.re = x; im = 0.0 } in
  let sum = ref 0.0 in
  for k = 0 to n do
    let w = { Complex.re = 1.0; im = float_of_int k *. h } in
    let s = Complex.mul (re mu) (Complex.mul w w) in
    let ds = Complex.mul { Complex.re = 0.0; im = 2.0 *. mu } w in
    let f =
      Complex.div
        (Complex.pow s (re (alpha -. beta)))
        (Complex.sub (Complex.pow s (re alpha)) (re z))
    in
    let g = Complex.mul (Complex.mul (Complex.exp s) f) ds in
    sum := !sum +. ((if k = 0 then 1.0 else 2.0) *. g.Complex.im)
  done;
  h /. (2.0 *. Float.pi) *. !sum

let mittag_leffler ?(beta = 1.0) ~alpha z =
  if alpha <= 0.0 then invalid_arg "Special.mittag_leffler: alpha <= 0";
  (* the power series for negative z cancels like exp(|z|^{1/α}): below
     order 1 the contour integral never cancels; from order 1 up switch
     to the asymptotic expansion before the cancellation eats the
     double precision *)
  let cancellation = if z < 0.0 then Float.abs z ** (1.0 /. alpha) else 0.0 in
  if z < 0.0 && alpha < 1.0 then ml_contour ~alpha ~beta z
  else if z < 0.0 && alpha < 2.0 && cancellation > 20.0 then
    ml_asymptotic ~alpha ~beta z
  else ml_series ~alpha ~beta z

let ml_relaxation ~alpha ~lambda t =
  if t < 0.0 then invalid_arg "Special.ml_relaxation: t < 0";
  if t = 0.0 then 1.0 else mittag_leffler ~alpha (-.lambda *. (t ** alpha))

let ml_step_response ~alpha ~lambda t = 1.0 -. ml_relaxation ~alpha ~lambda t
