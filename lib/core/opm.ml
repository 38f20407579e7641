open Opm_numkit
open Opm_basis
module Trace = Opm_obs.Trace

type backend = [ `Auto | `Dense | `Sparse ]

(* the input-projection helpers live in Compiled_model (which sits
   below Opm so the one-shot paths can be compile-then-solve);
   re-exported here for existing callers *)
let input_coefficients = Compiled_model.input_coefficients

let bu_matrix ~grid sys sources = Compiled_model.bu_matrix ~grid sys sources

(* One-shot simulation is literally compile-then-solve: every
   plant-dependent artefact (operational matrices or banded history,
   FFT plan, pinned pencil factor) is built by [compile] exactly as the
   historical one-shot path built it, so cold behaviour is
   bit-identical while sweep callers can hold on to the compiled model
   and pay the setup once. *)
let simulate_multi_term ?(backend = `Auto) ?basis ?health ?budget ?checkpoint
    ?checkpoint_every ?resume_from ?x0 ?window ?memory_len ~grid
    (sys : Multi_term.t) sources =
  Trace.with_span "opm.simulate" @@ fun () ->
  let t =
    Compiled_model.compile ~backend ?basis ?health ?window ?memory_len ~grid
      sys
  in
  Compiled_model.solve ?health ?budget ?checkpoint ?checkpoint_every
    ?resume_from ?x0 t sources

let simulate_fractional ?backend ?basis ?health ?budget ?checkpoint
    ?checkpoint_every ?resume_from ?x0 ?window ?memory_len ~grid ~alpha sys
    sources =
  simulate_multi_term ?backend ?basis ?health ?budget ?checkpoint
    ?checkpoint_every ?resume_from ?x0 ?window ?memory_len ~grid
    (Multi_term.of_fractional ~alpha sys)
    sources

let simulate_linear ?backend ?basis ?health ?budget ?checkpoint
    ?checkpoint_every ?resume_from ?x0 ?window ?memory_len ~grid sys sources =
  simulate_multi_term ?backend ?basis ?health ?budget ?checkpoint
    ?checkpoint_every ?resume_from ?x0 ?window ?memory_len ~grid
    (Multi_term.of_linear sys) sources

(* BU·H without forming the m×m H: column j is
   Σ_{k<j} h_k·bu_k + (h_j/2)·bu_j, the running sum accumulated in
   ascending k — the order [Mat.mul] adds H's column in, so the result
   is bit-identical to it for finite [bu] *)
let integrate_columns steps bu =
  let n, m = Mat.dims bu in
  let out = Mat.zeros n m in
  for r = 0 to n - 1 do
    let acc = ref 0.0 in
    for j = 0 to m - 1 do
      let b = Mat.get bu r j in
      Mat.set out r j (!acc +. (b *. (0.5 *. steps.(j))));
      acc := !acc +. (b *. steps.(j))
    done
  done;
  out

let simulate_linear_integral ?(backend = `Auto) ?health ?budget ?x0 ~grid
    (sys : Descriptor.t) sources =
  Trace.with_span "opm.simulate_integral" @@ fun () ->
  let bu = bu_matrix ~grid (Multi_term.of_linear sys) sources in
  let n = Descriptor.order sys in
  let x0 = Option.value x0 ~default:(Vec.zeros n) in
  if Array.length x0 <> n then
    invalid_arg "Opm: x0 length mismatch with system order";
  (* the running-sum history carries O(n) state, so the whole horizon
     is one run whatever its length *)
  let x =
    Engine.solve
      (Engine.prepare
         { Engine.default with health; budget }
         (Engine.pencil backend [ sys.Descriptor.e; sys.Descriptor.a ])
         (Engine.running_sum ~x0 (Grid.steps grid)))
      (integrate_columns (Grid.steps grid) bu)
  in
  Sim_result.make ?health ~grid ~x ~c:sys.Descriptor.c
    ~state_names:sys.Descriptor.state_names
    ~output_names:sys.Descriptor.output_names ()
