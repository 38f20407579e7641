(* Order statistics for the benchmark summaries and the comparison. *)

(* Linear interpolation between closest ranks; [nan] on no samples. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

type summary = { value : float; q1 : float; q3 : float; n : int }

(* [f] over all samples, with the quartiles of [f] over five consecutive
   blocks of them: how far the value moves within one run, which is what
   [compare] weighs a difference against. The samples' own quartiles
   would not do: a one-shot run's latencies spread by a quarter or more
   while their median moves by a few per cent. *)
let blocked f xs =
  let a = Array.of_list xs in
  let n = Array.length a and k = 5 in
  let blocks =
    List.init k (fun i -> Array.sub a (i * n / k) (((i + 1) * n / k) - (i * n / k)))
    |> List.filter (fun b -> Array.length b > 0)
    |> List.map (fun b -> f (Array.to_list b))
  in
  { value = f xs; q1 = quantile blocks 0.25; q3 = quantile blocks 0.75; n }
