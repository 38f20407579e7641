type t = float array

let zeros n = Array.make n 0.0

let copy = Array.copy

let check_dims name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)"
                   name (Array.length x) (Array.length y))

let map2 f x y =
  check_dims "map2" x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let add x y = map2 ( +. ) x y

let sub x y = map2 ( -. ) x y

let scale a x = Array.map (fun v -> a *. v) x

let axpy a x y =
  check_dims "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot x y =
  check_dims "dot" x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    s := !s +. (x.(i) *. y.(i))
  done;
  !s

let norm2 x = sqrt (dot x x)

let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x

let dist2 x y =
  check_dims "dist2" x y;
  let s = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    s := !s +. (d *. d)
  done;
  sqrt !s

let max_abs_diff x y =
  check_dims "max_abs_diff" x y;
  let m = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    m := Float.max !m (Float.abs (x.(i) -. y.(i)))
  done;
  !m

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y && max_abs_diff x y <= tol
