type t = float array

let truncate n c =
  Array.init n (fun k -> if k < Array.length c then c.(k) else 0.0)

(* Exact-zero coefficients of [a] are skipped, as [Mat.mul_rows] skips
   zero entries: a sum that starts at +0 never changes its bits by
   adding ±0, and the surviving terms keep their ascending-i order. The
   scan also stops at [a]'s last nonzero: a terminating binomial series
   (integer α) has α+1 nonzero terms, so its products cost O(n) instead
   of O(n²). *)
let mul a b =
  let n = min (Array.length a) (Array.length b) in
  let rec last_nonzero i = if i >= 0 && a.(i) = 0.0 then last_nonzero (i - 1) else i in
  let last = last_nonzero (n - 1) in
  Array.init n (fun k ->
      let s = ref 0.0 in
      for i = 0 to min k last do
        let ai = a.(i) in
        if ai <> 0.0 then s := !s +. (ai *. b.(k - i))
      done;
      !s)

let binomial_series alpha n =
  let c = Array.make n 0.0 in
  if n > 0 then begin
    c.(0) <- 1.0;
    (* C(α,k) = C(α,k−1) · (α−k+1)/k *)
    for k = 1 to n - 1 do
      c.(k) <- c.(k - 1) *. (alpha -. float_of_int (k - 1)) /. float_of_int k
    done
  end;
  c

let one_minus_over_one_plus_pow alpha n =
  (* (1−q)^α · (1+q)^{−α}: two binomial series, Cauchy-multiplied *)
  let minus = binomial_series alpha n in
  let num = Array.mapi (fun k c -> if k land 1 = 1 then -.c else c) minus in
  let den = binomial_series (-.alpha) n in
  mul num den

let eval_nilpotent c q =
  let n, m = Mat.dims q in
  if n <> m then invalid_arg "Series.eval_nilpotent: non-square matrix";
  let len = Array.length c in
  if len = 0 then Mat.zeros n n
  else begin
    let acc = ref (Mat.scale c.(len - 1) (Mat.eye n)) in
    for k = len - 2 downto 0 do
      acc := Mat.add (Mat.mul !acc q) (Mat.scale c.(k) (Mat.eye n))
    done;
    !acc
  end

let eval c x = Array.fold_right (fun ck acc -> (acc *. x) +. ck) c 0.0
