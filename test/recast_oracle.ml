(* A reference for the uniform-grid differential form, built from public
   pieces only: the column equation right-multiplied by (I+Q)^N, as the
   engine's banded history recasts it, but solved by the plain column
   scan of [Engine.triangular] over dense m×m operational matrices.

     Σ_k E_k·X·D̃_k + (−A)·X·((I+Q)^N − I) − A·X = B·U·(I+Q)^N

   with D̃_k = s_k·T((1−q)^{α_k}(1+q)^{N−α_k}), s_k = (2/h)^{α_k}, and
   T(r) the upper-triangular Toeplitz matrix whose first row is r. The
   diagonal of (I+Q)^N − I is zero, so every column block is the
   engine's Σ_k s_k E_k − A. The scan sums every lag directly and in
   order, so it shares no arithmetic with the FFT convolver; a plain
   scan of D^α itself rounds too coarsely for orders above one to serve
   as a 1e-10 reference. *)

open Opm_numkit
open Opm_sparse
open Opm_basis
open Opm_core

let toeplitz_upper m r = Mat.init m m (fun i j -> if j >= i then r.(j - i) else 0.0)

(* the pencil, history and forcing of the recast system *)
let plan ~grid (mt : Multi_term.t) sources =
  let m = Grid.size grid in
  let h = Grid.t_end grid /. float_of_int m in
  let orders = List.map (fun { Multi_term.alpha; _ } -> alpha) mt.Multi_term.terms in
  let lags = float_of_int (List.fold_left (fun acc a -> max acc (truncate a)) 0 orders) in
  let ds =
    List.map
      (fun a ->
        Mat.scale ((2.0 /. h) ** a)
          (toeplitz_upper m (Series.binomial_product a (lags -. a) m)))
      orders
  in
  let lift = toeplitz_upper m (Series.binomial_product 0.0 lags m) in
  let pencil =
    Engine.pencil
      (List.map (fun { Multi_term.coeff; _ } -> coeff) mt.Multi_term.terms
      @ [ Csr.scale (-1.0) mt.Multi_term.a; mt.Multi_term.a ])
  in
  let history =
    Engine.triangular ~orders:(orders @ [ 0.0 ]) (ds @ [ Mat.sub lift (Mat.eye m) ])
  in
  (pencil, history, Mat.mul (Compiled_model.bu_matrix ~grid mt sources) lift)

(* the states X of the recast system *)
let solve ~grid mt sources =
  let pencil, history, bu = plan ~grid mt sources in
  Engine.solve (Engine.prepare Engine.default pencil history) bu
