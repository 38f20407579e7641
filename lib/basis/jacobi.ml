open Opm_numkit

type colloc = {
  t_end : float;
  m : int;
  nodes : float array;
  all : float array;
  bw : float array;
  qw : float array;
}

(* P_deg^{(a,b)}(z) by the three-term recurrence. Degree 1 is computed
   from its closed form: the generic recurrence coefficient
   2n(n+a+b)(2n+a+b−2) vanishes at n = 1 exactly on the a+b = 0 line
   the fractional matrix lives on. *)
let jacobi_eval ~a ~b ~deg z =
  if deg < 0 then invalid_arg "Jacobi.jacobi_eval: negative degree";
  if deg = 0 then 1.0
  else begin
    let ab = a +. b in
    let p1 = ((a -. b) /. 2.0) +. (((ab +. 2.0) /. 2.0) *. z) in
    if deg = 1 then p1
    else begin
      let pm2 = ref 1.0 and pm1 = ref p1 in
      for n = 2 to deg do
        let fn = float_of_int n in
        let t = (2.0 *. fn) +. ab in
        let c1 = 2.0 *. fn *. (fn +. ab) *. (t -. 2.0) in
        let c2 = (t -. 1.0) *. ((a *. a) -. (b *. b)) in
        let c3 = (t -. 2.0) *. (t -. 1.0) *. t in
        let c4 = 2.0 *. (fn +. a -. 1.0) *. (fn +. b -. 1.0) *. t in
        if abs_float c1 < 1e-300 then
          invalid_arg "Jacobi.jacobi_eval: degenerate recurrence parameters";
        let p = (((c2 +. (c3 *. z)) *. !pm1) -. (c4 *. !pm2)) /. c1 in
        pm2 := !pm1;
        pm1 := p
      done;
      !pm1
    end
  end

(* All of P_0..P_deg at one z in a single recurrence pass. Each degree
   performs the same arithmetic as [jacobi_eval] would, so the row is
   bit-identical to deg+1 separate calls while costing O(deg) instead
   of O(deg²) — this is what keeps the Vandermonde/fractional-matrix
   assembly out of the compile-time profile. *)
let jacobi_row ~a ~b ~deg z =
  if deg < 0 then invalid_arg "Jacobi.jacobi_row: negative degree";
  let out = Array.make (deg + 1) 1.0 in
  if deg >= 1 then begin
    let ab = a +. b in
    let p1 = ((a -. b) /. 2.0) +. (((ab +. 2.0) /. 2.0) *. z) in
    out.(1) <- p1;
    let pm2 = ref 1.0 and pm1 = ref p1 in
    for n = 2 to deg do
      let fn = float_of_int n in
      let t = (2.0 *. fn) +. ab in
      let c1 = 2.0 *. fn *. (fn +. ab) *. (t -. 2.0) in
      let c2 = (t -. 1.0) *. ((a *. a) -. (b *. b)) in
      let c3 = (t -. 2.0) *. (t -. 1.0) *. t in
      let c4 = 2.0 *. (fn +. a -. 1.0) *. (fn +. b -. 1.0) *. t in
      if abs_float c1 < 1e-300 then
        invalid_arg "Jacobi.jacobi_row: degenerate recurrence parameters";
      let p = (((c2 +. (c3 *. z)) *. !pm1) -. (c4 *. !pm2)) /. c1 in
      out.(n) <- p;
      pm2 := !pm1;
      pm1 := p
    done
  end;
  out

(* Symmetric tridiagonal eigensolve — implicit-shift QL (EISPACK tql2)
   restricted to accumulating the *first row* of the eigenvector
   matrix, which is all Golub–Welsch needs: the quadrature weight is
   μ₀·v₀² per eigenpair. [d] is the diagonal (length n), [e] the
   subdiagonal (length n−1). Returns unsorted eigenvalues and their
   first eigenvector components. *)
let tridiag_eig d0 e0 =
  let n = Array.length d0 in
  let d = Array.copy d0 in
  let e = Array.make (max n 1) 0.0 in
  Array.blit e0 0 e 0 (n - 1);
  let z = Array.make n 0.0 in
  if n > 0 then z.(0) <- 1.0;
  for l = 0 to n - 1 do
    let iter = ref 0 in
    let finished = ref false in
    while not !finished do
      let m = ref l in
      while
        !m < n - 1
        && abs_float e.(!m)
           > epsilon_float *. (abs_float d.(!m) +. abs_float d.(!m + 1))
      do
        incr m
      done;
      if !m = l then finished := true
      else begin
        incr iter;
        if !iter > 64 then
          failwith "Jacobi.gauss: QL eigensolve did not converge";
        let g0 = (d.(l + 1) -. d.(l)) /. (2.0 *. e.(l)) in
        let r0 = Float.hypot g0 1.0 in
        let sign_r = if g0 >= 0.0 then r0 else -. r0 in
        let g = ref (d.(!m) -. d.(l) +. (e.(l) /. (g0 +. sign_r))) in
        let s = ref 1.0 and c = ref 1.0 and p = ref 0.0 in
        let i = ref (!m - 1) in
        let broke = ref false in
        while !i >= l && not !broke do
          let f = !s *. e.(!i) in
          let b = !c *. e.(!i) in
          let r = Float.hypot f !g in
          e.(!i + 1) <- r;
          if r = 0.0 then begin
            d.(!i + 1) <- d.(!i + 1) -. !p;
            e.(!m) <- 0.0;
            broke := true
          end
          else begin
            s := f /. r;
            c := !g /. r;
            let g' = d.(!i + 1) -. !p in
            let r' = ((d.(!i) -. g') *. !s) +. (2.0 *. !c *. b) in
            p := !s *. r';
            d.(!i + 1) <- g' +. !p;
            g := (!c *. r') -. b;
            let fz = z.(!i + 1) in
            z.(!i + 1) <- (!s *. z.(!i)) +. (!c *. fz);
            z.(!i) <- (!c *. z.(!i)) -. (!s *. fz);
            decr i
          end
        done;
        if not !broke then begin
          d.(l) <- d.(l) -. !p;
          e.(l) <- !g;
          e.(!m) <- 0.0
        end
      end
    done
  done;
  (d, z)

let gauss ?(a = 0.0) ?(b = 0.0) ~m () =
  if m < 1 then invalid_arg "Jacobi.gauss: m < 1";
  if a <= -1.0 || b <= -1.0 then invalid_arg "Jacobi.gauss: a, b must be > -1";
  let ab = a +. b in
  (* Gautschi's r_jacobi recurrence coefficients for (1−z)^a (1+z)^b *)
  let diag =
    Array.init m (fun n ->
        if n = 0 then (b -. a) /. (ab +. 2.0)
        else
          let fn = float_of_int n in
          ((b *. b) -. (a *. a))
          /. (((2.0 *. fn) +. ab) *. ((2.0 *. fn) +. ab +. 2.0)))
  in
  let beta n =
    if n = 1 then
      4.0 *. (a +. 1.0) *. (b +. 1.0)
      /. ((ab +. 2.0) *. (ab +. 2.0) *. (ab +. 3.0))
    else
      let fn = float_of_int n in
      let t = (2.0 *. fn) +. ab in
      4.0 *. fn *. (fn +. a) *. (fn +. b) *. (fn +. ab)
      /. (t *. t *. (t +. 1.0) *. (t -. 1.0))
  in
  let sub = Array.init (max 0 (m - 1)) (fun i -> sqrt (beta (i + 1))) in
  let evals, z = tridiag_eig diag sub in
  let mu0 =
    (2.0 ** (ab +. 1.0))
    *. exp
         (Special.lgamma (a +. 1.0)
         +. Special.lgamma (b +. 1.0)
         -. Special.lgamma (ab +. 2.0))
  in
  let idx = Array.init m Fun.id in
  Array.sort (fun i j -> compare evals.(i) evals.(j)) idx;
  let nodes = Array.map (fun i -> evals.(i)) idx in
  let weights = Array.map (fun i -> mu0 *. z.(i) *. z.(i)) idx in
  (nodes, weights)

let barycentric_weights x =
  let n = Array.length x in
  if n = 0 then invalid_arg "Jacobi.barycentric_weights: empty node set";
  let lo = Array.fold_left Float.min x.(0) x in
  let hi = Array.fold_left Float.max x.(0) x in
  let cap = if hi > lo then (hi -. lo) /. 4.0 else 1.0 in
  Array.init n (fun j ->
      let p = ref 1.0 in
      for k = 0 to n - 1 do
        if k <> j then begin
          let d = (x.(j) -. x.(k)) /. cap in
          if d = 0.0 then
            invalid_arg "Jacobi.barycentric_weights: repeated node";
          p := !p *. d
        end
      done;
      1.0 /. !p)

let collocation ~t_end ~m =
  if m < 1 then invalid_arg "Jacobi.collocation: m < 1";
  if not (t_end > 0.0) then invalid_arg "Jacobi.collocation: t_end <= 0";
  let zn, zw = gauss ~m () in
  let nodes = Array.map (fun z -> (z +. 1.0) /. 2.0 *. t_end) zn in
  let qw = Array.map (fun w -> w *. t_end /. 2.0) zw in
  let all = Array.append [| 0.0 |] nodes in
  let bw = barycentric_weights all in
  { t_end; m; nodes; all; bw; qw }

let resample_matrix c times =
  let mm = c.m + 1 in
  let nt = Array.length times in
  let r = Mat.zeros nt mm in
  for k = 0 to nt - 1 do
    let t = times.(k) in
    let hit = ref (-1) in
    for j = 0 to mm - 1 do
      if t = c.all.(j) then hit := j
    done;
    if !hit >= 0 then Mat.set r k !hit 1.0
    else begin
      let den = ref 0.0 in
      for j = 0 to mm - 1 do
        den := !den +. (c.bw.(j) /. (t -. c.all.(j)))
      done;
      for j = 0 to mm - 1 do
        Mat.set r k j (c.bw.(j) /. (t -. c.all.(j)) /. !den)
      done
    end
  done;
  r

let diff_matrix c =
  let mm = c.m + 1 in
  let d = Mat.zeros mm mm in
  for i = 0 to mm - 1 do
    let sum = ref 0.0 in
    for j = 0 to mm - 1 do
      if j <> i then begin
        let v = c.bw.(j) /. c.bw.(i) /. (c.all.(i) -. c.all.(j)) in
        Mat.set d i j v;
        sum := !sum +. v
      end
    done;
    Mat.set d i i (-. !sum)
  done;
  d

let integer_colloc c q =
  let dfull = diff_matrix c in
  let dq = if q = 1 then dfull else Mat.pow dfull q in
  Mat.init c.m c.m (fun i j -> Mat.get dq (i + 1) (j + 1))

let caputo_colloc c ~alpha =
  if not (alpha > 0.0) then invalid_arg "Jacobi.caputo_colloc: alpha <= 0";
  if Float.is_integer alpha then integer_colloc c (int_of_float alpha)
  else begin
    let mm = c.m + 1 in
    let xs = Array.map (fun t -> t /. c.t_end) c.all in
    (* shifted-Legendre Vandermonde V_{ik} = P̂_k(x_i); Gauss-type nodes
       keep it well conditioned at the degrees spectral collocation
       uses *)
    let v =
      let rows =
        Array.map
          (fun x -> jacobi_row ~a:0.0 ~b:0.0 ~deg:(mm - 1) ((2.0 *. x) -. 1.0))
          xs
      in
      Mat.init mm mm (fun i k -> rows.(i).(k))
    in
    (* W_{ik} = (RL D^α P̂_k)(x_{i+1}) on [0,1], by the stable identity
       RL D^α P̂_k(x) = Γ(k+1)/Γ(k−α+1) · x^{−α} · P_k^{(α,−α)}(2x−1);
       rows at the Gauss nodes only, so x > 0 throughout. The Γ ratio
       depends only on the degree, so it is tabulated once. *)
    let ratio =
      Array.init mm (fun k ->
          let shifted = float_of_int k -. alpha +. 1.0 in
          if shifted > 0.0 then
            exp (Special.lgamma (float_of_int (k + 1)) -. Special.lgamma shifted)
          else
            (* k − α + 1 < 0 (k = 0, α > 1): Γ via reflection *)
            exp (Special.lgamma (float_of_int (k + 1))) /. Special.gamma shifted)
    in
    let w =
      let rows =
        Array.init c.m (fun i ->
            let x = xs.(i + 1) in
            let ps =
              jacobi_row ~a:alpha ~b:(-.alpha) ~deg:(mm - 1)
                ((2.0 *. x) -. 1.0)
            in
            let xa = x ** (-.alpha) in
            Array.init mm (fun k -> ratio.(k) *. xa *. ps.(k)))
      in
      Mat.init c.m mm (fun i k -> rows.(i).(k))
    in
    (* cardinal-basis matrix D = W·V⁻¹ = (V⁻ᵀ·Wᵀ)ᵀ; drop the column of
       the node-0 cardinal (the anchored action) and undo the [0,1]
       time scaling *)
    let lu = Lu.factor (Mat.transpose v) in
    let d_full = Mat.transpose (Lu.solve_mat lu (Mat.transpose w)) in
    let scale = c.t_end ** (-. alpha) in
    Mat.init c.m c.m (fun i j -> scale *. Mat.get d_full i (j + 1))
  end
