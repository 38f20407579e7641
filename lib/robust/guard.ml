let is_finite v =
  let ok = ref true in
  for i = 0 to Array.length v - 1 do
    if not (Float.is_finite v.(i)) then ok := false
  done;
  !ok

let count_non_finite v =
  let nans = ref 0 and infs = ref 0 in
  Array.iter
    (fun x ->
      if Float.is_nan x then incr nans
      else if not (Float.is_finite x) then incr infs)
    v;
  (!nans, !infs)

let protect f = match f () with x -> Ok x | exception e -> Error e
