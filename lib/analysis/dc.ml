open Opm_numkit
open Opm_sparse
open Opm_core

let operating_point (sys : Descriptor.t) ~u0 =
  let p = Descriptor.input_count sys in
  if Array.length u0 <> p then invalid_arg "Dc.operating_point: u0 size";
  let rhs = Vec.scale (-1.0) (Mat.mul_vec sys.Descriptor.b u0) in
  Slu.solve_dense sys.Descriptor.a rhs

let outputs_at sys ~u0 =
  Mat.mul_vec sys.Descriptor.c (operating_point sys ~u0)
