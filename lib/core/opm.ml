module Trace = Opm_obs.Trace

(* the input projection lives in Compiled_model (which sits below Opm
   so the one-shot paths can be compile-then-solve); re-exported here
   for existing callers *)
let input_coefficients = Compiled_model.input_coefficients

(* One-shot simulation is literally compile-then-solve: every
   plant-dependent artefact (operational matrices or banded history,
   FFT plan, pencil factor) is built by [compile] exactly as the
   historical one-shot path built it, so cold behaviour is
   bit-identical while sweep callers can hold on to the compiled model
   and pay the setup once. *)
let simulate_multi_term ?basis ?health ?budget ?checkpoint ?checkpoint_every
    ?resume_from ?x0 ?window ?memory_len ~grid (sys : Multi_term.t) sources =
  Trace.with_span "opm.simulate" @@ fun () ->
  let t = Compiled_model.compile ?basis ?health ?window ?memory_len ~grid sys in
  Compiled_model.solve ?health ?budget ?checkpoint ?checkpoint_every
    ?resume_from ?x0 t sources

let simulate_fractional ?budget ?checkpoint ?checkpoint_every ?resume_from ?window
    ?memory_len ~grid ~alpha sys sources =
  simulate_multi_term ?budget ?checkpoint ?checkpoint_every ?resume_from ?window
    ?memory_len ~grid
    (Multi_term.of_fractional ~alpha sys)
    sources

let simulate_linear ~grid sys sources =
  simulate_multi_term ~grid (Multi_term.of_linear sys) sources
