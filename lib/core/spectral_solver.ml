open Opm_numkit
open Opm_sparse
open Opm_basis
open Opm_signal
module Health = Opm_robust.Health
module Budget = Opm_robust.Budget
module Opm_error = Opm_robust.Opm_error
module Trace = Opm_obs.Trace

module Operator = struct
  type t = { n : int; m : int; lu : Lu.t; cond : float }

  let make ?health ?budget ~n ~m terms =
    Trace.with_span "spectral.factor" @@ fun () ->
    let nm = n * m in
    (match budget with
    | Some bgt ->
        Budget.check_deadline_now bgt ~site:"spectral.factor";
        Budget.charge_factor ~bytes:(nm * nm * 8) bgt ~site:"spectral.factor"
    | None -> ());
    let op = Mat.zeros nm nm in
    let od = op.Mat.data in
    List.iter
      (fun (cmat, mmat) ->
        let cr, cc = Mat.dims cmat and mr, mc = Mat.dims mmat in
        if cr <> n || cc <> n || mr <> m || mc <> m then
          invalid_arg "Spectral_solver.Operator: term dimension mismatch";
        let cd = cmat.Mat.data and md = mmat.Mat.data in
        (* op += M_kᵀ ⊗ C_k in the column-stacked vec convention:
           entry ((i·n+r), (j·n+s)) += M_{ji} · C_{rs}; flat indices
           with hoisted row bases — this scatter runs once per compile
           but is m²n² wide, so accessor-call overhead is visible *)
        for i = 0 to m - 1 do
          for j = 0 to m - 1 do
            let mji = Array.unsafe_get md ((j * m) + i) in
            if mji <> 0.0 then
              for r = 0 to n - 1 do
                let rowbase = ((((i * n) + r) * nm) + (j * n)) in
                let crow = r * n in
                for s = 0 to n - 1 do
                  let idx = rowbase + s in
                  Array.unsafe_set od idx
                    (Array.unsafe_get od idx
                    +. (mji *. Array.unsafe_get cd (crow + s)))
                done
              done
          done
        done)
      terms;
    let lu =
      try Lu.factor op
      with Lu.Singular k ->
        (* vec index k = i·n + r: time column i, state row r *)
        Opm_error.raise_
          (Opm_error.Singular_pencil
             { column = k / n; step = k mod n; pivot = 0.0; name = None })
    in
    let cond = Lu.cond_est lu in
    (match health with Some h -> Health.record_cond h cond | None -> ());
    { n; m; lu; cond }

  let cond t = t.cond

  let solve ?health ?budget t rhs =
    (match budget with
    | Some bgt -> Budget.check_deadline bgt ~site:"spectral.solve"
    | None -> ());
    let rr, rc = Mat.dims rhs in
    if rr <> t.n || rc <> t.m then
      invalid_arg "Spectral_solver.Operator.solve: rhs dimension mismatch";
    let nm = t.n * t.m in
    let b = Array.make nm 0.0 in
    for i = 0 to t.m - 1 do
      for r = 0 to t.n - 1 do
        b.((i * t.n) + r) <- Mat.get rhs r i
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
    Mat.init t.n t.m (fun r i -> xv.((i * t.n) + r))
end

type t = {
  sys : Multi_term.t;
  grid : Grid.t;
  colloc : Jacobi.colloc;
  op : Operator.t;
  resample : Mat.t;  (* (Grid.size) × (m+1): midpoint evaluation *)
  dfull : Mat.t Lazy.t;  (* (m+1)² classical derivative for input_order *)
  mutable reuse : int;
}

let colloc t = t.colloc

let grid t = t.grid

let factorisations _ = 1

let factor_reuse t = t.reuse

let compile ?health ?budget ~grid (sys : Multi_term.t) =
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
  let op = Operator.make ?health ?budget ~n ~m terms in
  let resample = Jacobi.resample_matrix colloc (Grid.midpoints grid) in
  {
    sys;
    grid;
    colloc;
    op;
    resample;
    dfull = lazy (Jacobi.diff_matrix colloc);
    reuse = 0;
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
    if t.sys.Multi_term.input_order = 0 then u
    else begin
      let dt = Mat.transpose (Lazy.force t.dfull) in
      let rec go u k = if k = 0 then u else go (Mat.mul u dt) (k - 1) in
      go u t.sys.Multi_term.input_order
    end
  in
  let ug = Mat.init p t.colloc.Jacobi.m (fun r i -> Mat.get u r (i + 1)) in
  Mat.mul t.sys.Multi_term.b ug

let solve_z ?health ?budget t bu =
  t.reuse <- t.reuse + 1;
  Operator.solve ?health ?budget t.op bu

let solve_nodal ?health ?budget t sources =
  solve_z ?health ?budget t (bu_nodal t sources)

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
  Sim_result.make ?health ~grid:t.grid ~x:x_mid ~c:t.sys.Multi_term.c
    ~state_names:t.sys.Multi_term.state_names
    ~output_names:t.sys.Multi_term.output_names ()
