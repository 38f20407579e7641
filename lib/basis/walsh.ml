open Opm_numkit

let check_pow2 name m =
  if m <= 0 || m land (m - 1) <> 0 then
    invalid_arg (Printf.sprintf "Walsh.%s: %d is not a power of two" name m)

let rec hadamard m =
  check_pow2 "hadamard" m;
  if m = 1 then Mat.eye 1
  else
    let half = hadamard (m / 2) in
    Mat.init m m (fun i j ->
        let v = Mat.get half (i mod (m / 2)) (j mod (m / 2)) in
        if i >= m / 2 && j >= m / 2 then -.v else v)

let sequency_of_row w i =
  let _, cols = Mat.dims w in
  let changes = ref 0 in
  for j = 1 to cols - 1 do
    if Mat.get w i j *. Mat.get w i (j - 1) < 0.0 then incr changes
  done;
  !changes

let walsh_matrix m =
  check_pow2 "walsh_matrix" m;
  let h = hadamard m in
  let order = Array.init m Fun.id in
  Array.sort (fun a b -> compare (sequency_of_row h a) (sequency_of_row h b)) order;
  Mat.init m m (fun i j -> Mat.get h order.(i) j)

let fwht x =
  let m = Array.length x in
  check_pow2 "fwht" m;
  let y = Array.copy x in
  let len = ref 1 in
  while !len < m do
    let i = ref 0 in
    while !i < m do
      for k = !i to !i + !len - 1 do
        let a = y.(k) and b = y.(k + !len) in
        y.(k) <- a +. b;
        y.(k + !len) <- a -. b
      done;
      i := !i + (2 * !len)
    done;
    len := !len * 2
  done;
  y

let bpf_to_walsh c =
  let m = Array.length c in
  let w = walsh_matrix m in
  Vec.scale (1.0 /. float_of_int m) (Mat.mul_vec w c)

let walsh_to_bpf c =
  let m = Array.length c in
  let w = walsh_matrix m in
  Mat.tmul_vec w c

let similarity grid op =
  let m = Grid.size grid in
  check_pow2 "operational matrix" m;
  if not (Grid.is_uniform ~tol:1e-12 grid) then
    invalid_arg "Walsh: operational matrices require a uniform grid";
  let w = walsh_matrix m in
  let w_inv = Mat.scale (1.0 /. float_of_int m) (Mat.transpose w) in
  Mat.mul (Mat.mul w op) w_inv

let differential_matrix grid =
  similarity grid (Block_pulse.differential_matrix grid)

let truncate_spectrum ~keep c =
  Array.mapi (fun i v -> if i < keep then v else 0.0) c
