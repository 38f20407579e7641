type t = float array

(* f = (1−q)^a·(1+q)^b satisfies (1−q²)·f' = ((b−a) − (a+b)·q)·f, so
   its coefficients obey the three-term recurrence
   (k+1)·c_{k+1} = (b−a)·c_k + (k−1−a−b)·c_{k−1}, c₀ = 1, c₁ = b−a:
   O(n) instead of the O(n²) Cauchy product of two binomial series.
   For a = α, b = −α it is (k+1)·c_{k+1} = (k−1)·c_{k−1} − 2α·c_k. Integer
   exponents give integer coefficients, exact until 2⁵³, so a terminating
   product ends in exact zeros. *)
let binomial_product a b n =
  let c = Array.make n 0.0 in
  if n > 0 then c.(0) <- 1.0;
  if n > 1 then c.(1) <- b -. a;
  let d = b -. a and s = a +. b in
  for k = 1 to n - 2 do
    c.(k + 1) <-
      ((d *. c.(k)) +. ((float_of_int (k - 1) -. s) *. c.(k - 1)))
      /. float_of_int (k + 1)
  done;
  c

let one_minus_over_one_plus_pow alpha n = binomial_product alpha (-.alpha) n

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
