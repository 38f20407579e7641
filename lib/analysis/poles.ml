open Opm_numkit
open Opm_core

let of_descriptor ?(shift = 1.0) (sys : Descriptor.t) =
  let e = Descriptor.e_dense sys in
  let a = Descriptor.a_dense sys in
  (* mu = (A − σE)^{−1} E has eigenvalues 1/(λ − σ) over finite
     generalised eigenvalues λ of (A, E), 0 for infinite ones *)
  let pencil = Mat.sub a (Mat.scale shift e) in
  let lu = Lu.factor pencil in
  let m = Lu.solve_mat lu e in
  let mus = Eig.eigenvalues m in
  let mu_max =
    Array.fold_left (fun acc z -> Float.max acc (Complex.norm z)) 0.0 mus
  in
  let threshold = 1e-9 *. Float.max mu_max 1e-300 in
  mus
  |> Array.to_list
  |> List.filter_map (fun mu ->
         if Complex.norm mu <= threshold then None
         else
           Some
             (Complex.add (Complex.div Complex.one mu)
                { Complex.re = shift; im = 0.0 }))
  |> Array.of_list

let is_stable ?shift ?(margin = 0.0) sys =
  Array.for_all
    (fun z -> z.Complex.re <= -.margin)
    (of_descriptor ?shift sys)

let fractional_stability_angle ~alpha z =
  Float.abs (Complex.arg z) > alpha *. Float.pi /. 2.0
