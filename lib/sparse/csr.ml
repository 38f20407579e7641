open Opm_numkit

type t = {
  rows : int;
  cols : int;
  row_ptr : int array;
  col_ind : int array;
  values : float array;
}

let nnz a = Array.length a.values

let dims a = (a.rows, a.cols)

let zero ~rows ~cols =
  { rows; cols; row_ptr = Array.make (rows + 1) 0; col_ind = [||]; values = [||] }

let eye n =
  {
    rows = n;
    cols = n;
    row_ptr = Array.init (n + 1) Fun.id;
    col_ind = Array.init n Fun.id;
    values = Array.make n 1.0;
  }

let get a i j =
  if i < 0 || i >= a.rows || j < 0 || j >= a.cols then
    invalid_arg "Csr.get: out of bounds";
  let lo = ref a.row_ptr.(i) and hi = ref (a.row_ptr.(i + 1) - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = a.col_ind.(mid) in
    if c = j then begin
      result := a.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let mul_vec a x =
  if Array.length x <> a.cols then invalid_arg "Csr.mul_vec: dimension mismatch";
  let y = Array.make a.rows 0.0 in
  for i = 0 to a.rows - 1 do
    let s = ref 0.0 in
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      s := !s +. (a.values.(k) *. x.(a.col_ind.(k)))
    done;
    y.(i) <- !s
  done;
  y

let tmul_vec a x =
  if Array.length x <> a.rows then invalid_arg "Csr.tmul_vec: dimension mismatch";
  let y = Array.make a.cols 0.0 in
  for i = 0 to a.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
        y.(a.col_ind.(k)) <- y.(a.col_ind.(k)) +. (a.values.(k) *. xi)
      done
  done;
  y

let transpose a =
  let n = nnz a in
  let row_ptr = Array.make (a.cols + 1) 0 in
  for k = 0 to n - 1 do
    row_ptr.(a.col_ind.(k) + 1) <- row_ptr.(a.col_ind.(k) + 1) + 1
  done;
  for j = 1 to a.cols do
    row_ptr.(j) <- row_ptr.(j) + row_ptr.(j - 1)
  done;
  let col_ind = Array.make n 0 and values = Array.make n 0.0 in
  let cursor = Array.copy row_ptr in
  for i = 0 to a.rows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      let j = a.col_ind.(k) in
      col_ind.(cursor.(j)) <- i;
      values.(cursor.(j)) <- a.values.(k);
      cursor.(j) <- cursor.(j) + 1
    done
  done;
  { rows = a.cols; cols = a.rows; row_ptr; col_ind; values }

let scale s a = { a with values = Array.map (fun v -> s *. v) a.values }

let map f a = { a with values = Array.map f a.values }

let add ?(alpha = 1.0) ?(beta = 1.0) a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Csr.add: dimension mismatch";
  let row_ptr = Array.make (a.rows + 1) 0 in
  let col_acc = ref [] and val_acc = ref [] and total = ref 0 in
  for i = 0 to a.rows - 1 do
    (* merge the two sorted rows *)
    let ka = ref a.row_ptr.(i) and kb = ref b.row_ptr.(i) in
    let ea = a.row_ptr.(i + 1) and eb = b.row_ptr.(i + 1) in
    let row_cols = ref [] and row_vals = ref [] and count = ref 0 in
    let push c v =
      row_cols := c :: !row_cols;
      row_vals := v :: !row_vals;
      incr count
    in
    while !ka < ea || !kb < eb do
      if !ka < ea && (!kb >= eb || a.col_ind.(!ka) < b.col_ind.(!kb)) then begin
        push a.col_ind.(!ka) (alpha *. a.values.(!ka));
        incr ka
      end
      else if !kb < eb && (!ka >= ea || b.col_ind.(!kb) < a.col_ind.(!ka)) then begin
        push b.col_ind.(!kb) (beta *. b.values.(!kb));
        incr kb
      end
      else begin
        push a.col_ind.(!ka) ((alpha *. a.values.(!ka)) +. (beta *. b.values.(!kb)));
        incr ka;
        incr kb
      end
    done;
    col_acc := List.rev !row_cols :: !col_acc;
    val_acc := List.rev !row_vals :: !val_acc;
    total := !total + !count;
    row_ptr.(i + 1) <- !total
  done;
  let col_ind = Array.make !total 0 and values = Array.make !total 0.0 in
  let k = ref 0 in
  List.iter2
    (fun cs vs ->
      List.iter2
        (fun c v ->
          col_ind.(!k) <- c;
          values.(!k) <- v;
          incr k)
        cs vs)
    (List.rev !col_acc) (List.rev !val_acc);
  { rows = a.rows; cols = a.cols; row_ptr; col_ind; values }

let to_dense a =
  let d = Mat.zeros a.rows a.cols in
  for i = 0 to a.rows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      Mat.set d i a.col_ind.(k) a.values.(k)
    done
  done;
  d

let of_dense ?(tol = 0.0) d =
  let rows, cols = Mat.dims d in
  let row_ptr = Array.make (rows + 1) 0 in
  let col_acc = ref [] and val_acc = ref [] and total = ref 0 in
  for i = 0 to rows - 1 do
    let row_cols = ref [] and row_vals = ref [] in
    for j = cols - 1 downto 0 do
      let v = Mat.get d i j in
      if Float.abs v > tol then begin
        row_cols := j :: !row_cols;
        row_vals := v :: !row_vals;
        incr total
      end
    done;
    col_acc := !row_cols :: !col_acc;
    val_acc := !row_vals :: !val_acc;
    row_ptr.(i + 1) <- !total
  done;
  let col_ind = Array.make !total 0 and values = Array.make !total 0.0 in
  let k = ref 0 in
  List.iter2
    (fun cs vs ->
      List.iter2
        (fun c v ->
          col_ind.(!k) <- c;
          values.(!k) <- v;
          incr k)
        cs vs)
    (List.rev !col_acc) (List.rev !val_acc);
  { rows; cols; row_ptr; col_ind; values }

let iter f a =
  for i = 0 to a.rows - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      f i a.col_ind.(k) a.values.(k)
    done
  done

let max_abs_diff a b =
  let d = add ~alpha:1.0 ~beta:(-1.0) a b in
  Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 d.values
