open Opm_numkit
open Opm_sparse
open Opm_basis
open Opm_signal
module Health = Opm_robust.Health
module Budget = Opm_robust.Budget
module Opm_error = Opm_robust.Opm_error
module Trace = Opm_obs.Trace

(* The dense Kronecker operator: factor Σ_k (M_kᵀ ⊗ C_k) once, then
   solve Σ_k C_k X M_k = R for many right-hand sides. [make] raises a
   structured Singular_pencil and records the condition estimate into
   [health]; [solve] checks the deadline of [budget] and raises a
   structured Non_finite on NaN/Inf. *)
module Operator = struct
  type t = { n : int; m : int; lu : Lu.t }

  let make ?health ~n ~m terms =
    Trace.with_span "spectral.factor" @@ fun () ->
    let nm = n * m in
    let op = Mat.zeros nm nm in
    let od = op.Mat.data in
    List.iter
      (fun (cmat, mmat) ->
        let cr, cc = Mat.dims cmat and mr, mc = Mat.dims mmat in
        if cr <> n || cc <> n || mr <> m || mc <> m then
          invalid_arg "Spectral_solver.Operator: term dimension mismatch";
        let cd = cmat.Mat.data and md = mmat.Mat.data in
        (* op += M_kᵀ ⊗ C_k, rows and columns ordered state-major: vec
           index r·m + i is state r at node i, so entry
           ((r·m+i), (s·m+j)) += M_{ji} · C_{rs}. In this order every
           block (r, s) is the m × m matrix Σ_k C_k[r,s]·M_kᵀ, and a
           sparse or diagonal C_k leaves whole blocks zero, so the
           rows end near the diagonal and [Lu.factor_profile] skips
           their zero tails (time-major order interleaves the states
           and fills in completely). Flat indices with hoisted row
           bases — the scatter is m²n² wide. *)
        for r = 0 to n - 1 do
          for s = 0 to n - 1 do
            let crs = Array.unsafe_get cd ((r * n) + s) in
            if crs <> 0.0 then
              for i = 0 to m - 1 do
                let rowbase = ((((r * m) + i) * nm) + (s * m)) in
                for j = 0 to m - 1 do
                  let idx = rowbase + j in
                  Array.unsafe_set od idx
                    (Array.unsafe_get od idx
                    +. (Array.unsafe_get md ((j * m) + i) *. crs))
                done
              done
          done
        done)
      terms;
    (* [op] is never read again: factor it in place *)
    let lu =
      try Lu.factor_profile op
      with Lu.Singular k ->
        (* vec index k = r·m + i: state row r, time column i *)
        Opm_error.raise_
          (Opm_error.Singular_pencil
             { column = k mod m; step = k / m; pivot = 0.0; name = None })
    in
    (match health with Some h -> Health.record_cond h (Lu.cond_est lu) | None -> ());
    { n; m; lu }

  let solve ?health ?budget t rhs =
    (match budget with
    | Some bgt -> Budget.check_deadline bgt ~site:"spectral.solve"
    | None -> ());
    let rr, rc = Mat.dims rhs in
    if rr <> t.n || rc <> t.m then
      invalid_arg "Spectral_solver.Operator.solve: rhs dimension mismatch";
    let nm = t.n * t.m in
    let b = Array.make nm 0.0 in
    for r = 0 to t.n - 1 do
      for i = 0 to t.m - 1 do
        b.((r * t.m) + i) <- Mat.get rhs r i
      done
    done;
    let xv = Lu.solve t.lu b in
    (match health with Some h -> Health.record_vec h xv | None -> ());
    let nans = ref 0 and infs = ref 0 in
    Array.iter
      (fun v ->
        if Float.is_nan v then incr nans
        else if not (Float.is_finite v) then incr infs)
      xv;
    if !nans > 0 || !infs > 0 then
      Opm_error.raise_
        (Opm_error.Non_finite
           { stage = "spectral"; column = None; nans = !nans; infs = !infs });
    Mat.init t.n t.m (fun r i -> xv.((r * t.m) + i))
end

type t = {
  sys : Multi_term.t;
  grid : Grid.t;
  colloc : Jacobi.colloc;
  op : Operator.t;
  resample : Mat.t;  (* (Grid.size) × (m+1): midpoint evaluation *)
  dfull : Mat.t option;
      (* (m+1)² classical derivative, built at compile when
         input_order > 0: a lazy value forced by two domains at once
         raises CamlinternalLazy.Undefined *)
  reuse : int Atomic.t;
}

let factorisations _ = 1

let factor_reuse t = Atomic.get t.reuse

let compile ?health ~grid (sys : Multi_term.t) =
  Trace.with_span "spectral.compile" @@ fun () ->
  (match grid with
  | Grid.Uniform _ -> ()
  | Grid.Adaptive _ ->
      invalid_arg "Opm: the spectral basis requires a uniform grid");
  let n = Multi_term.order sys in
  let m = Grid.size grid in
  let colloc = Jacobi.collocation ~t_end:(Grid.t_end grid) ~m in
  let terms =
    (Trace.with_span "spectral.matrices" @@ fun () ->
     List.map
       (fun { Multi_term.coeff; alpha } ->
         ( Csr.to_dense coeff,
           Mat.transpose (Jacobi.caputo_colloc colloc ~alpha) ))
       sys.Multi_term.terms)
    @ [ (Mat.scale (-1.0) (Csr.to_dense sys.Multi_term.a), Mat.eye m) ]
  in
  let op = Operator.make ?health ~n ~m terms in
  let resample = Jacobi.resample_matrix colloc (Grid.midpoints grid) in
  {
    sys;
    grid;
    colloc;
    op;
    resample;
    dfull =
      (if sys.Multi_term.input_order > 0 then Some (Jacobi.diff_matrix colloc)
       else None);
    reuse = Atomic.make 0;
  }

(* Collocation samples the sources at the nodes — no projection
   integrals. The input derivative of [input_order = r] systems is r
   applications of the exact classical differentiation matrix on the
   full node set (values at nodes → derivative values at nodes). *)
let bu_nodal t sources =
  Trace.with_span "spectral.sample_inputs" @@ fun () ->
  let p = Multi_term.input_count t.sys in
  if Array.length sources <> p then
    invalid_arg
      (Printf.sprintf "Opm: system has %d inputs but %d sources given" p
         (Array.length sources));
  let mm = t.colloc.Jacobi.m + 1 in
  let u =
    Mat.init p mm (fun r j -> Source.eval sources.(r) t.colloc.Jacobi.all.(j))
  in
  let u =
    match t.dfull with
    | None -> u
    | Some d ->
        let dt = Mat.transpose d in
        let rec go u k = if k = 0 then u else go (Mat.mul u dt) (k - 1) in
        go u t.sys.Multi_term.input_order
  in
  let ug = Mat.init p t.colloc.Jacobi.m (fun r i -> Mat.get u r (i + 1)) in
  Mat.mul t.sys.Multi_term.b ug

let solve_z ?health ?budget t bu =
  Atomic.incr t.reuse;
  Operator.solve ?health ?budget t.op bu

let solve_nodal t sources = solve_z t (bu_nodal t sources)

let anchored t z =
  let n, mz = Mat.dims z in
  if mz <> t.colloc.Jacobi.m then
    invalid_arg "Spectral_solver: nodal value count mismatch";
  Mat.init n (mz + 1) (fun r j -> if j = 0 then 0.0 else Mat.get z r (j - 1))

let sample t z times =
  let r = Jacobi.resample_matrix t.colloc times in
  Mat.mul (anchored t z) (Mat.transpose r)

let solve ?health ?budget ?x0 t sources =
  Trace.with_span "spectral.solve" @@ fun () ->
  let n = Multi_term.order t.sys in
  let m = t.colloc.Jacobi.m in
  let bu = bu_nodal t sources in
  (* z = x − x₀: the collocation operator annihilates constants under
     the zero-initial-derivative convention, so only the RHS sees x₀ *)
  let bu =
    match x0 with
    | None -> bu
    | Some x0 ->
        if Array.length x0 <> n then
          invalid_arg "Opm: x0 length mismatch with system order";
        let ax0 = Csr.mul_vec t.sys.Multi_term.a x0 in
        Mat.init n m (fun r i -> Mat.get bu r i +. ax0.(r))
  in
  let z = solve_z ?health ?budget t bu in
  let x_mid = Mat.mul (anchored t z) (Mat.transpose t.resample) in
  let x_mid =
    match x0 with
    | None -> x_mid
    | Some x0 ->
        let rows, cols = Mat.dims x_mid in
        Mat.init rows cols (fun r i -> Mat.get x_mid r i +. x0.(r))
  in
  Sim_result.make ~grid:t.grid ~x:x_mid ~c:t.sys.Multi_term.c
    ~output_names:t.sys.Multi_term.output_names ()
