type t =
  | Uniform of { t_end : float; m : int }
  | Adaptive of { steps : float array }

let uniform ~t_end ~m =
  (* written so that NaN fails too *)
  if not (Float.is_finite t_end && t_end > 0.0) then
    invalid_arg "Grid.uniform: t_end must be finite and > 0";
  if m <= 0 then invalid_arg "Grid.uniform: m <= 0";
  Uniform { t_end; m }

let adaptive steps =
  if Array.length steps = 0 then invalid_arg "Grid.adaptive: no steps";
  Array.iter
    (fun h ->
      if not (Float.is_finite h && h > 0.0) then
        invalid_arg "Grid.adaptive: steps must be finite and > 0")
    steps;
  Adaptive { steps }

let size = function
  | Uniform { m; _ } -> m
  | Adaptive { steps } -> Array.length steps

let t_end = function
  | Uniform { t_end; _ } -> t_end
  | Adaptive { steps } -> Array.fold_left ( +. ) 0.0 steps

let steps = function
  | Uniform { t_end; m } -> Array.make m (t_end /. float_of_int m)
  | Adaptive { steps } -> Array.copy steps

let boundaries g =
  let s = steps g in
  let m = Array.length s in
  let b = Array.make (m + 1) 0.0 in
  for i = 0 to m - 1 do
    b.(i + 1) <- b.(i) +. s.(i)
  done;
  b

let midpoints g =
  let b = boundaries g in
  Array.init (Array.length b - 1) (fun i -> 0.5 *. (b.(i) +. b.(i + 1)))

let is_uniform ?(tol = 0.0) = function
  | Uniform _ -> true
  | Adaptive { steps } ->
      let h0 = steps.(0) in
      Array.for_all (fun h -> Float.abs (h -. h0) <= tol *. h0) steps

let geometric ~t_end ~m ~ratio =
  if t_end <= 0.0 || m <= 0 || ratio <= 0.0 then
    invalid_arg "Grid.geometric: bad arguments";
  if ratio = 1.0 then uniform ~t_end ~m
  else begin
    (* h_i = h0 · ratio^i with Σ h_i = t_end *)
    let geom_sum = (1.0 -. (ratio ** float_of_int m)) /. (1.0 -. ratio) in
    let h0 = t_end /. geom_sum in
    adaptive (Array.init m (fun i -> h0 *. (ratio ** float_of_int i)))
  end
