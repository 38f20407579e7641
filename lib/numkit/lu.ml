module Metrics = Opm_obs.Metrics

(* observability instruments (no-ops unless metrics are enabled) *)
let m_factor = Metrics.counter "lu.factor"
let m_solve = Metrics.counter "lu.solve"
let h_factor_seconds = Metrics.histogram "lu.factor_seconds"
let g_cond_est = Metrics.gauge "lu.cond_est"

type t = {
  lu : Mat.t;
  piv : int array;
  sign : float;
  norm1 : float;  (* ‖A‖₁ of the factored matrix, for cond_est *)
  cond1 : float option Atomic.t;
      (* cached Hager estimate; Atomic because factors are shared by
         queries on several domains *)
}

exception Singular of int

let mat_norm1 a =
  let n, m = Mat.dims a in
  let d = a.Mat.data in
  let best = ref 0.0 in
  for j = 0 to m - 1 do
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. Float.abs (Array.unsafe_get d ((i * m) + j))
    done;
    if !s > !best then best := !s
  done;
  !best

(* The elimination below works on the flat row-major [data] array with
   hoisted row offsets and unchecked accesses: the O(n³) inner loop is
   this library's hottest path (the spectral collocation operator is a
   dense nm × nm pencil), and going through [Mat.get]/[Mat.set] costs
   an un-inlined call plus two bounds checks per flop. The operation
   order is exactly the classical k-outer scan, so results are
   bit-identical to the accessor-based version this replaces.

   [last.(i)] bounds row i's nonzeros: every entry right of it is an
   exact zero. [factor] sets it to n − 1, so every update runs the
   full row. [factor_profile] starts from each row's last nonzero and
   keeps the invariant through swaps (the bound moves with the row)
   and updates (row i − f·row k is zero right of both bounds). *)
let eliminate ~profile ~copy a =
  Metrics.incr m_factor;
  Metrics.time h_factor_seconds @@ fun () ->
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Lu.factor: non-square matrix";
  let norm1 = mat_norm1 a in
  let lu = if copy then Mat.copy a else a in
  let d = lu.Mat.data in
  let piv = Array.init n (fun i -> i) in
  let last =
    Array.init n (fun i ->
        if not profile then n - 1
        else begin
          let j = ref (n - 1) in
          while !j >= 0 && Array.unsafe_get d ((i * n) + !j) = 0.0 do
            decr j
          done;
          !j
        end)
  in
  let sign = ref 1.0 in
  for k = 0 to n - 1 do
    let rk = k * n in
    (* partial pivoting: pick the largest magnitude in column k below row k *)
    let p = ref k in
    let best = ref (Float.abs (Array.unsafe_get d (rk + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Array.unsafe_get d ((i * n) + k)) in
      if v > !best then begin
        p := i;
        best := v
      end
    done;
    if !p <> k then begin
      let rp = !p * n in
      for j = 0 to n - 1 do
        let tmp = Array.unsafe_get d (rk + j) in
        Array.unsafe_set d (rk + j) (Array.unsafe_get d (rp + j));
        Array.unsafe_set d (rp + j) tmp
      done;
      let tmp = piv.(k) in
      piv.(k) <- piv.(!p);
      piv.(!p) <- tmp;
      let tmp = last.(k) in
      last.(k) <- last.(!p);
      last.(!p) <- tmp;
      sign := -. !sign
    end;
    let pivot = Array.unsafe_get d (rk + k) in
    if Float.abs pivot < 1e-300 then raise (Singular k);
    let last_k = last.(k) in
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let f = Array.unsafe_get d (ri + k) /. pivot in
      Array.unsafe_set d (ri + k) f;
      if f <> 0.0 then begin
        for j = k + 1 to last_k do
          Array.unsafe_set d (ri + j)
            (Array.unsafe_get d (ri + j)
            -. (f *. Array.unsafe_get d (rk + j)))
        done;
        if last_k > last.(i) then last.(i) <- last_k
      end
    done
  done;
  { lu; piv; sign = !sign; norm1; cond1 = Atomic.make None }

let factor a = eliminate ~profile:false ~copy:true a

(* in place: the caller hands over [a], which becomes the packed factors *)
let factor_profile a = eliminate ~profile:true ~copy:false a

let solve { lu; piv; _ } b =
  Metrics.incr m_solve;
  let n, _ = Mat.dims lu in
  if Array.length b <> n then invalid_arg "Lu.solve: dimension mismatch";
  let d = lu.Mat.data in
  let x = Array.init n (fun i -> b.(piv.(i))) in
  (* forward substitution with unit lower triangle *)
  for i = 1 to n - 1 do
    let ri = i * n in
    let s = ref (Array.unsafe_get x i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get d (ri + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !s
  done;
  (* back substitution with upper triangle *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let s = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get d (ri + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!s /. Array.unsafe_get d (ri + i))
  done;
  x

let solve_transpose { lu; piv; _ } b =
  let n, _ = Mat.dims lu in
  if Array.length b <> n then
    invalid_arg "Lu.solve_transpose: dimension mismatch";
  let d = lu.Mat.data in
  (* A = P⁻¹LU, so Aᵀ x = b is Uᵀ z = b, Lᵀ w = z, x(piv(i)) = w(i) *)
  let z = Array.copy b in
  for i = 0 to n - 1 do
    let s = ref (Array.unsafe_get z i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get d ((j * n) + i) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i (!s /. Array.unsafe_get d ((i * n) + i))
  done;
  for i = n - 1 downto 0 do
    let s = ref (Array.unsafe_get z i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get d ((j * n) + i) *. Array.unsafe_get z j)
    done;
    Array.unsafe_set z i !s
  done;
  let x = Array.make n 0.0 in
  Array.iteri (fun i p -> x.(p) <- z.(i)) piv;
  x

let solve_mat lu b =
  let n, _ = Mat.dims lu.lu in
  let _, cols = Mat.dims b in
  let x = Mat.zeros n cols in
  for j = 0 to cols - 1 do
    Mat.set_col x j (solve lu (Mat.col b j))
  done;
  x

let solve_dense a b = solve (factor a) b

let inverse a =
  let n, _ = Mat.dims a in
  solve_mat (factor a) (Mat.eye n)

(* Hager/Higham power iteration on ‖A⁻¹‖₁ using one solve with A and one
   with Aᵀ per step (Higham, "FORTRAN codes for estimating the matrix
   one-norm", Algorithm 2.4 without the extra-vector safeguard). *)
let inv_norm1_est ~n ~solve ~solve_t =
  if n = 0 then 0.0
  else begin
    let norm1 v = Array.fold_left (fun a x -> a +. Float.abs x) 0.0 v in
    let x = ref (Array.make n (1.0 /. float_of_int n)) in
    let est = ref 0.0 in
    let finished = ref false in
    let iter = ref 0 in
    while (not !finished) && !iter < 5 do
      incr iter;
      let y = solve !x in
      let e = norm1 y in
      if not (Float.is_finite e) then begin
        est := Float.infinity;
        finished := true
      end
      else begin
        if e > !est then est := e;
        let xi = Array.map (fun v -> if v >= 0.0 then 1.0 else -1.0) y in
        let z = solve_t xi in
        let j = ref 0 in
        for i = 1 to n - 1 do
          if Float.abs z.(i) > Float.abs z.(!j) then j := i
        done;
        let zx = ref 0.0 in
        for i = 0 to n - 1 do
          zx := !zx +. (z.(i) *. !x.(i))
        done;
        if Float.abs z.(!j) <= !zx then finished := true
        else begin
          let ej = Array.make n 0.0 in
          ej.(!j) <- 1.0;
          x := ej
        end
      end
    done;
    !est
  end

let cond_est f =
  match Atomic.get f.cond1 with
  | Some c -> c
  | None ->
      let n, _ = Mat.dims f.lu in
      let inv =
        inv_norm1_est ~n ~solve:(solve f) ~solve_t:(solve_transpose f)
      in
      let c = f.norm1 *. inv in
      Atomic.set f.cond1 (Some c);
      Metrics.set_gauge g_cond_est c;
      c
