open Opm_numkit
open Opm_basis
open Opm_signal

let state_coefficients ?health ?budget ?x0 ~t_end ~m (sys : Descriptor.t)
    sources =
  if m <= 0 then invalid_arg "Legendre_solver: m <= 0";
  let n = Descriptor.order sys in
  let p = Descriptor.input_count sys in
  if Array.length sources <> p then
    invalid_arg "Legendre_solver: source count mismatch";
  let x0 = Option.value x0 ~default:(Vec.zeros n) in
  if Array.length x0 <> n then invalid_arg "Legendre_solver: x0 length";
  (* input projection: one row of Legendre coefficients per source *)
  let u = Mat.zeros p m in
  Array.iteri
    (fun r src ->
      let coeffs = Legendre.project ~t_end ~m (Source.eval src) in
      for i = 0 to m - 1 do
        Mat.set u r i coeffs.(i)
      done)
    sources;
  let h_mat = Legendre.integral_matrix ~t_end ~m in
  let bu_int = Mat.mul (Mat.mul sys.Descriptor.b u) h_mat in
  (* E X = A X H + B U H + (E x₀)·e₀ᵀ (constant 1 = SL₀), i.e. the
     two-term dense pencil E·X·I − A·X·H = RHS of the shared Kronecker
     operator [I_m ⊗ E − Hᵀ ⊗ A], factored through the guardrailed
     primitive; valid for the non-triangular Legendre H *)
  let op =
    Spectral_solver.Operator.make ?health ?budget ~n ~m
      [
        (Descriptor.e_dense sys, Mat.eye m);
        (Mat.scale (-1.0) (Descriptor.a_dense sys), h_mat);
      ]
  in
  let e_x0 = Mat.mul_vec (Descriptor.e_dense sys) x0 in
  let rhs =
    Mat.init n m (fun r i ->
        Mat.get bu_int r i +. if i = 0 then e_x0.(r) else 0.0)
  in
  Spectral_solver.Operator.solve ?health ?budget op rhs

let simulate ?health ?budget ?x0 ~t_end ~m ~sample_count (sys : Descriptor.t)
    sources =
  if sample_count < 2 then invalid_arg "Legendre_solver: sample_count < 2";
  let x = state_coefficients ?health ?budget ?x0 ~t_end ~m sys sources in
  let q = Descriptor.output_count sys in
  let y = Mat.mul sys.Descriptor.c x in
  let times = Vec.linspace 0.0 t_end sample_count in
  let channels =
    Array.init q (fun r ->
        let coeffs = Mat.row y r in
        Array.map (fun t -> Legendre.reconstruct ~t_end ~m coeffs t) times)
  in
  Waveform.make ~labels:sys.Descriptor.output_names times channels
