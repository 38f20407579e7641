let run ?pool evaluate values =
  let eval v = (v, evaluate v) in
  match pool with
  | None -> Array.map eval values
  | Some p -> Opm_parallel.Pool.map p eval values

type stats = {
  samples : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  q05 : float;
  median : float;
  q95 : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  let rank = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let statistics values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Sweep.statistics: empty array";
  let mean = Array.fold_left ( +. ) 0.0 values /. float_of_int n in
  let var =
    if n = 1 then 0.0
    else
      Array.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 values
      /. float_of_int (n - 1)
  in
  let sorted = Array.copy values in
  Array.sort compare sorted;
  {
    samples = n;
    mean;
    std = sqrt var;
    min = sorted.(0);
    max = sorted.(n - 1);
    q05 = percentile sorted 0.05;
    median = percentile sorted 0.5;
    q95 = percentile sorted 0.95;
  }
