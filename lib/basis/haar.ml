open Opm_numkit

let check_pow2 name m =
  if m <= 0 || m land (m - 1) <> 0 then
    invalid_arg (Printf.sprintf "Haar.%s: %d is not a power of two" name m)

let haar_matrix m =
  check_pow2 "haar_matrix" m;
  let t = Mat.zeros m m in
  for j = 0 to m - 1 do
    Mat.set t 0 j 1.0
  done;
  (* row index 2^p + q (q = 0 … 2^p − 1): wavelet at scale p, shift q *)
  let row = ref 1 in
  let p = ref 0 in
  while !row < m do
    let scale = 1 lsl !p in
    (* width of the support in intervals *)
    let width = m / scale in
    for q = 0 to scale - 1 do
      if !row < m then begin
        let start = q * width in
        for j = start to start + (width / 2) - 1 do
          Mat.set t !row j 1.0
        done;
        for j = start + (width / 2) to start + width - 1 do
          Mat.set t !row j (-1.0)
        done;
        incr row
      end
    done;
    incr p
  done;
  t

(* rows of haar_matrix are orthogonal with squared norms m, m, m/2, m/2,
   m/4 … ; the inverse is Tᵀ · diag(1/‖row‖²) *)
let row_sq_norm m i =
  if i = 0 then float_of_int m
  else
    let p = int_of_float (Float.log2 (float_of_int i)) in
    float_of_int m /. float_of_int (1 lsl p)

let transform c =
  let m = Array.length c in
  check_pow2 "transform" m;
  let t = haar_matrix m in
  let y = Mat.mul_vec t c in
  Array.mapi (fun i v -> v /. row_sq_norm m i) y

let inverse_transform c =
  let m = Array.length c in
  check_pow2 "inverse_transform" m;
  let t = haar_matrix m in
  Mat.tmul_vec t c

let similarity grid op =
  let m = Grid.size grid in
  check_pow2 "operational matrix" m;
  if not (Grid.is_uniform ~tol:1e-12 grid) then
    invalid_arg "Haar: operational matrices require a uniform grid";
  let t = haar_matrix m in
  let t_inv =
    Mat.init m m (fun i j -> Mat.get t j i /. row_sq_norm m j)
  in
  Mat.mul (Mat.mul t op) t_inv

let integral_matrix grid = similarity grid (Block_pulse.integral_matrix grid)

let differential_matrix grid =
  similarity grid (Block_pulse.differential_matrix grid)
