open Opm_numkit
open Opm_sparse
open Opm_signal
open Opm_core

(* principal branch of s^α *)
let cpow s alpha =
  if s = Complex.zero then if alpha = 0.0 then Complex.one else Complex.zero
  else Complex.exp (Complex.mul { Complex.re = alpha; im = 0.0 } (Complex.log s))

let solve ?pool ~n_samples ~alpha ~t_end (sys : Descriptor.t) sources =
  if n_samples < 2 then invalid_arg "Freq_domain.solve: n_samples < 2";
  if t_end <= 0.0 then invalid_arg "Freq_domain.solve: t_end <= 0";
  let p = Descriptor.input_count sys in
  if Array.length sources <> p then
    invalid_arg "Freq_domain.solve: source count mismatch";
  let sigma = 3.0 /. t_end in
  let n = Descriptor.order sys in
  let q = Descriptor.output_count sys in
  let dt = t_end /. float_of_int n_samples in
  let times = Array.init n_samples (fun k -> float_of_int k *. dt) in
  (* damped input samples: u(t)·e^{−σt}, one FFT per input channel *)
  let spectra =
    Array.map
      (fun src ->
        Fft.fft_real
          (Array.map (fun t -> Source.eval src t *. exp (-.sigma *. t)) times))
      sources
  in
  let omegas = Fft.frequencies n_samples dt in
  let e = Cmat.of_real (Csr.to_dense sys.Descriptor.e) in
  let a = Cmat.of_real (Csr.to_dense sys.Descriptor.a) in
  let b = sys.Descriptor.b and c = sys.Descriptor.c in
  let pool =
    match pool with Some p -> p | None -> Opm_parallel.Pool.global ()
  in
  (* response spectrum on the line s = σ + jω; each frequency bin is an
     independent factor-and-solve writing only column k, so the bins fan
     out over the domain pool with bit-identical results *)
  let x_spec = Array.init n (fun _ -> Array.make n_samples Complex.zero) in
  Opm_parallel.Pool.parallel_for pool ~n:n_samples (fun k ->
      let s = { Complex.re = sigma; im = omegas.(k) } in
      let lhs = Cmat.sub (Cmat.scale (cpow s alpha) e) a in
      let rhs =
        Array.init n (fun r ->
            let acc = ref Complex.zero in
            for j = 0 to p - 1 do
              acc :=
                Complex.add !acc
                  (Complex.mul
                     { Complex.re = Mat.get b r j; im = 0.0 }
                     spectra.(j).(k))
            done;
            !acc)
      in
      let xk =
        try Cmat.solve lhs rhs with
        | Cmat.Singular _ ->
            (* singular pencil exactly on the contour: skip the bin *)
            Array.make n Complex.zero
      in
      for r = 0 to n - 1 do
        x_spec.(r).(k) <- xk.(r)
      done);
  (* back to time domain; undo the damping (one IFFT per state row) *)
  let x_time = Opm_parallel.Pool.map pool Fft.ifft x_spec in
  let channels =
    Array.init q (fun i ->
        Array.init n_samples (fun k ->
            let acc = ref 0.0 in
            for r = 0 to n - 1 do
              acc := !acc +. (Mat.get c i r *. x_time.(r).(k).Complex.re)
            done;
            !acc *. exp (sigma *. times.(k))))
  in
  Waveform.make ~labels:sys.Descriptor.output_names times channels
