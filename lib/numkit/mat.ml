type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.0

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Mat.init: negative dimension";
  let data = Array.make (rows * cols) 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let eye n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let get a i j = a.data.((i * a.cols) + j)

let set a i j x = a.data.((i * a.cols) + j) <- x

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let cols = Array.length rows_arr.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> cols then
          invalid_arg "Mat.of_arrays: ragged rows")
      rows_arr;
    init rows cols (fun i j -> rows_arr.(i).(j))
  end

let dims a = (a.rows, a.cols)

let copy a = { a with data = Array.copy a.data }

let transpose a = init a.cols a.rows (fun i j -> get a j i)

let row a i = Array.init a.cols (fun j -> get a i j)

let col a j = Array.init a.rows (fun i -> get a i j)

let set_col a j v =
  if Array.length v <> a.rows then invalid_arg "Mat.set_col: bad length";
  for i = 0 to a.rows - 1 do
    set a i j v.(i)
  done

let map f a = { a with data = Array.map f a.data }

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d vs %dx%d)" name a.rows
         a.cols b.rows b.cols)

let add a b =
  check_same "add" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  check_same "sub" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let scale s a = map (fun x -> s *. x) a

(* ikj loop order keeps the inner accesses contiguous in row-major data;
   shared row-range kernel for the serial and parallel products *)
let mul_rows a b c lo hi =
  for i = lo to hi - 1 do
    for k = 0 to a.cols - 1 do
      let aik = get a i k in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j) <-
            c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done

let check_mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.mul: inner dimension mismatch (%dx%d * %dx%d)"
         a.rows a.cols b.rows b.cols)

let mul a b =
  check_mul a b;
  let c = zeros a.rows b.cols in
  mul_rows a b c 0 a.rows;
  c

let mul_vec a x =
  if a.cols <> Array.length x then invalid_arg "Mat.mul_vec: dimension mismatch";
  let y = Array.make a.rows 0.0 in
  for i = 0 to a.rows - 1 do
    let s = ref 0.0 and row = i * a.cols in
    for j = 0 to a.cols - 1 do
      s := !s +. (Array.unsafe_get a.data (row + j) *. Array.unsafe_get x j)
    done;
    y.(i) <- !s
  done;
  y

let tmul_vec a x =
  if a.rows <> Array.length x then invalid_arg "Mat.tmul_vec: dimension mismatch";
  let y = Array.make a.cols 0.0 in
  for i = 0 to a.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to a.cols - 1 do
        y.(j) <- y.(j) +. (get a i j *. xi)
      done
  done;
  y

let kron a b =
  init (a.rows * b.rows) (a.cols * b.cols) (fun i j ->
      get a (i / b.rows) (j / b.cols) *. get b (i mod b.rows) (j mod b.cols))

let rec pow a k =
  if k < 0 then invalid_arg "Mat.pow: negative exponent"
  else if a.rows <> a.cols then invalid_arg "Mat.pow: non-square"
  else if k = 0 then eye a.rows
  else if k = 1 then copy a
  else
    let half = pow a (k / 2) in
    let sq = mul half half in
    if k mod 2 = 0 then sq else mul sq a

let norm_inf a =
  let best = ref 0.0 in
  for i = 0 to a.rows - 1 do
    let s = ref 0.0 in
    for j = 0 to a.cols - 1 do
      s := !s +. Float.abs (get a i j)
    done;
    best := Float.max !best !s
  done;
  !best

let max_abs_diff a b =
  check_same "max_abs_diff" a b;
  let m = ref 0.0 in
  for k = 0 to Array.length a.data - 1 do
    m := Float.max !m (Float.abs (a.data.(k) -. b.data.(k)))
  done;
  !m

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs_diff a b <= tol

let is_upper_triangular ?(tol = 0.0) a =
  let ok = ref true in
  for i = 0 to a.rows - 1 do
    for j = 0 to min (i - 1) (a.cols - 1) do
      if Float.abs (get a i j) > tol then ok := false
    done
  done;
  !ok
