let run ?pool evaluate values =
  let eval v = (v, evaluate v) in
  match pool with
  | None -> Array.map eval values
  | Some p -> Opm_parallel.Pool.map p eval values
