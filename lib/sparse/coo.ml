type t = {
  rows : int;
  cols : int;
  mutable ri : int array;
  mutable ci : int array;
  mutable vs : float array;
  mutable len : int;
}

let create ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Coo.create: negative dimension";
  { rows; cols; ri = Array.make 16 0; ci = Array.make 16 0; vs = Array.make 16 0.0; len = 0 }

(* a typed copy loop: [Array.blit] into a major-heap int array goes
   through the write barrier per element *)
let grow t =
  let ncap = 2 * Array.length t.ri in
  let ri = Array.make ncap 0 and ci = Array.make ncap 0 and vs = Array.make ncap 0.0 in
  for k = 0 to t.len - 1 do
    ri.(k) <- t.ri.(k);
    ci.(k) <- t.ci.(k);
    vs.(k) <- t.vs.(k)
  done;
  t.ri <- ri;
  t.ci <- ci;
  t.vs <- vs

let add t i j v =
  if i < 0 || i >= t.rows || j < 0 || j >= t.cols then
    invalid_arg
      (Printf.sprintf "Coo.add: (%d, %d) out of bounds for %dx%d" i j t.rows t.cols);
  if t.len = Array.length t.ri then grow t;
  t.ri.(t.len) <- i;
  t.ci.(t.len) <- j;
  t.vs.(t.len) <- v;
  t.len <- t.len + 1

(* Two stable counting sorts (by column, then by row) put the triplets
   in (row, col) order with equal keys in insertion order, so duplicates
   are summed in the order they were added. *)
let to_csr t =
  let len = t.len and ri = t.ri and ci = t.ci and vs = t.vs in
  (* [dst] gets the ids [src k] (or [k] without [src]) stably bucketed
     by [key] *)
  let bucket key n ?src dst =
    let start = Array.make (n + 1) 0 in
    for k = 0 to len - 1 do
      let b = key.(k) + 1 in
      start.(b) <- start.(b) + 1
    done;
    for b = 1 to n do
      start.(b) <- start.(b) + start.(b - 1)
    done;
    for k = 0 to len - 1 do
      let e = match src with None -> k | Some s -> s.(k) in
      let b = key.(e) in
      dst.(start.(b)) <- e;
      start.(b) <- start.(b) + 1
    done
  in
  let by_col = Array.make len 0 and order = Array.make len 0 in
  bucket ci t.cols by_col;
  bucket ri t.rows ~src:by_col order;
  (* sum each run of equal (row, col), left to right; the column ids
     are written over [by_col], which pass 2 has consumed *)
  let col_ind = by_col and values = Array.make len 0.0 in
  let row_ptr = Array.make (t.rows + 1) 0 in
  let nnz = ref 0 and k = ref 0 in
  while !k < len do
    let e = order.(!k) in
    let i = ri.(e) and j = ci.(e) in
    let v = ref 0.0 in
    while !k < len && ri.(order.(!k)) = i && ci.(order.(!k)) = j do
      v := !v +. vs.(order.(!k));
      incr k
    done;
    if !v <> 0.0 then begin
      col_ind.(!nnz) <- j;
      values.(!nnz) <- !v;
      incr nnz;
      row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
    end
  done;
  for i = 1 to t.rows do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  {
    Csr.rows = t.rows;
    cols = t.cols;
    row_ptr;
    col_ind = Array.sub col_ind 0 !nnz;
    values = Array.sub values 0 !nnz;
  }
