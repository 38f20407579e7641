open Opm_numkit

let project grid f =
  let b = Grid.boundaries grid in
  Array.init (Grid.size grid) (fun i ->
      Opm_signal.Source.average (Opm_signal.Source.Fn f) b.(i) b.(i + 1))

let project_source grid src =
  let b = Grid.boundaries grid in
  Array.init (Grid.size grid) (fun i ->
      Opm_signal.Source.average src b.(i) b.(i + 1))

let reconstruct grid coeffs t =
  let b = Grid.boundaries grid in
  let m = Grid.size grid in
  if Array.length coeffs <> m then
    invalid_arg "Block_pulse.reconstruct: coefficient length mismatch";
  if t < 0.0 || t > b.(m) then 0.0
  else if t >= b.(m) then
    (* clamp the exact right endpoint t = t_end to the last interval so
       evaluating a waveform at the final time is not silently zero *)
    coeffs.(m - 1)
  else begin
    (* binary search for the interval containing t *)
    let lo = ref 0 and hi = ref m in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if b.(mid) <= t then lo := mid else hi := mid
    done;
    coeffs.(!lo)
  end

let integral_matrix grid =
  let s = Grid.steps grid in
  let m = Array.length s in
  Mat.init m m (fun i j ->
      if j = i then 0.5 *. s.(i) else if j > i then s.(i) else 0.0)

let differential_matrix grid =
  let s = Grid.steps grid in
  let m = Array.length s in
  Mat.init m m (fun i j ->
      if j = i then 2.0 /. s.(i)
      else if j > i then
        let sign = if (j - i) land 1 = 1 then -1.0 else 1.0 in
        4.0 *. sign /. s.(j)
      else 0.0)

let integer_power grid k =
  if k = 0 then Mat.eye (Grid.size grid)
  else Mat.pow (differential_matrix grid) k

(* (2/h)^α·ρ_{α,m}(Q_m) for the shift matrix Q_m is the upper-triangular
   Toeplitz matrix with the scaled ρ coefficient c_{j−i} at (i, j) *)
let uniform_fractional ~t_end ~m alpha =
  let h = t_end /. float_of_int m in
  let scale = (2.0 /. h) ** alpha in
  let row = Array.map (fun c -> scale *. c) (Series.one_minus_over_one_plus_pow alpha m) in
  Mat.init m m (fun i j -> if j >= i then row.(j - i) else 0.0)

let fractional_differential_matrix grid alpha =
  if alpha < 0.0 then
    invalid_arg "Block_pulse.fractional_differential_matrix: alpha < 0";
  match grid with
  (* the series truncation is exact for integer α too (the binomial
     series terminate), and builds the Toeplitz result in O(m²) instead
     of O(m³) matrix powers *)
  | Grid.Uniform { t_end; m } -> uniform_fractional ~t_end ~m alpha
  | Grid.Adaptive _ when Grid.is_uniform ~tol:1e-12 grid ->
      uniform_fractional ~t_end:(Grid.t_end grid) ~m:(Grid.size grid) alpha
  | Grid.Adaptive _ ->
      if Float.is_integer alpha then integer_power grid (int_of_float alpha)
      else Tri.fractional_power (differential_matrix grid) alpha

let fractional_integral_matrix grid alpha =
  if alpha < 0.0 then
    invalid_arg "Block_pulse.fractional_integral_matrix: alpha < 0";
  if alpha = 0.0 then Mat.eye (Grid.size grid)
  else Tri.invert_upper (fractional_differential_matrix grid alpha)
