type t = { rows : int; cols : int; data : Complex.t array }

let zeros rows cols = { rows; cols; data = Array.make (rows * cols) Complex.zero }

let init rows cols f =
  let data = Array.make (rows * cols) Complex.zero in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let of_real a =
  let rows, cols = Mat.dims a in
  init rows cols (fun i j -> { Complex.re = Mat.get a i j; im = 0.0 })

let get a i j = a.data.((i * a.cols) + j)

let set a i j x = a.data.((i * a.cols) + j) <- x

let dims a = (a.rows, a.cols)

let copy a = { a with data = Array.copy a.data }

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg ("Cmat." ^ name ^ ": dimension mismatch")

let sub a b =
  check_same "sub" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> Complex.sub a.data.(k) b.data.(k)) }

let scale s a = { a with data = Array.map (Complex.mul s) a.data }

let max_abs_diff a b =
  check_same "max_abs_diff" a b;
  let m = ref 0.0 in
  for k = 0 to Array.length a.data - 1 do
    m := Float.max !m (Complex.norm (Complex.sub a.data.(k) b.data.(k)))
  done;
  !m

exception Singular of int

type factor = { lu : t; piv : int array }

let factor a =
  let n, m = dims a in
  if n <> m then invalid_arg "Cmat.factor: non-square matrix";
  let lu = copy a in
  let piv = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Complex.norm (get lu i k) > Complex.norm (get lu !p k) then p := i
    done;
    if !p <> k then begin
      for j = 0 to n - 1 do
        let tmp = get lu k j in
        set lu k j (get lu !p j);
        set lu !p j tmp
      done;
      let tmp = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- tmp
    end;
    let pivot = get lu k k in
    if Complex.norm pivot < 1e-300 then raise (Singular k);
    for i = k + 1 to n - 1 do
      let f = Complex.div (get lu i k) pivot in
      set lu i k f;
      if f <> Complex.zero then
        for j = k + 1 to n - 1 do
          set lu i j (Complex.sub (get lu i j) (Complex.mul f (get lu k j)))
        done
    done
  done;
  { lu; piv }

let solve_factored { lu; piv } b =
  let n, _ = dims lu in
  if Array.length b <> n then invalid_arg "Cmat.solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(piv.(i))) in
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := Complex.sub !s (Complex.mul (get lu i j) x.(j))
    done;
    x.(i) <- !s
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := Complex.sub !s (Complex.mul (get lu i j) x.(j))
    done;
    x.(i) <- Complex.div !s (get lu i i)
  done;
  x

let solve a b = solve_factored (factor a) b

let jomega_alpha omega alpha =
  if omega = 0.0 then
    if alpha = 0.0 then Complex.one else Complex.zero
  else
    let magnitude = Float.abs omega ** alpha in
    let phase = alpha *. (Float.pi /. 2.0) *. (if omega > 0.0 then 1.0 else -1.0) in
    { Complex.re = magnitude *. cos phase; im = magnitude *. sin phase }
