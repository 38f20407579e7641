open Opm_numkit
open Opm_sparse
open Opm_core

type point = { omega : float; response : Cmat.t }

let transfer ?(alpha = 1.0) (sys : Descriptor.t) omega =
  let n = Descriptor.order sys in
  let p = Descriptor.input_count sys in
  let q = Descriptor.output_count sys in
  let e = Cmat.of_real (Csr.to_dense sys.Descriptor.e) in
  let a = Cmat.of_real (Csr.to_dense sys.Descriptor.a) in
  let s_alpha = Cmat.jomega_alpha omega alpha in
  let pencil = Cmat.sub (Cmat.scale s_alpha e) a in
  let factor = Cmat.factor pencil in
  let g = Cmat.zeros q p in
  for j = 0 to p - 1 do
    let bj =
      Array.init n (fun r ->
          { Complex.re = Mat.get sys.Descriptor.b r j; im = 0.0 })
    in
    let xj = Cmat.solve_factored factor bj in
    for i = 0 to q - 1 do
      let acc = ref Complex.zero in
      for r = 0 to n - 1 do
        acc :=
          Complex.add !acc
            (Complex.mul
               { Complex.re = Mat.get sys.Descriptor.c i r; im = 0.0 }
               xj.(r))
      done;
      Cmat.set g i j !acc
    done
  done;
  g

let sweep ?pool ?alpha ~omega_min ~omega_max ~points sys =
  if points < 2 then invalid_arg "Ac.sweep: points < 2";
  if omega_min <= 0.0 || omega_max <= omega_min then
    invalid_arg "Ac.sweep: need 0 < omega_min < omega_max";
  let log_min = log10 omega_min and log_max = log10 omega_max in
  let omegas =
    Array.init points (fun k ->
        let frac = float_of_int k /. float_of_int (points - 1) in
        10.0 ** (log_min +. (frac *. (log_max -. log_min))))
  in
  (* every frequency point is an independent factor-and-solve: fan the
     sweep out over the domain pool (bit-identical to the serial loop) *)
  let pool =
    match pool with Some p -> p | None -> Opm_parallel.Pool.global ()
  in
  Array.to_list
    (Opm_parallel.Pool.map pool
       (fun omega -> { omega; response = transfer ?alpha sys omega })
       omegas)

let gain_db pt ~input ~output =
  20.0 *. log10 (Complex.norm (Cmat.get pt.response output input))

let phase_deg pt ~input ~output =
  Complex.arg (Cmat.get pt.response output input) *. 180.0 /. Float.pi
