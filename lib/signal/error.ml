open Opm_numkit

let relative_error ~reference y =
  if Array.length reference <> Array.length y then
    invalid_arg "Error.relative_error: length mismatch";
  let denom = Vec.norm2 reference in
  if denom = 0.0 then Float.nan else Vec.dist2 y reference /. denom

let relative_error_db ~reference y =
  let r = relative_error ~reference y in
  if r = 0.0 then Float.neg_infinity else 20.0 *. log10 r

let stack w = Array.concat (Array.to_list w.Waveform.channels)

let waveform_error_db ~reference y =
  let y' = Waveform.resample y reference.Waveform.times in
  relative_error_db ~reference:(stack reference) (stack y')

let average_relative_error_db ~reference y =
  let y' = Waveform.resample y reference.Waveform.times in
  let n = Waveform.channel_count reference in
  if n = 0 then invalid_arg "Error.average_relative_error_db: no channels";
  let sum = ref 0.0 in
  for c = 0 to n - 1 do
    sum :=
      !sum
      +. relative_error_db ~reference:(Waveform.channel reference c)
           (Waveform.channel y' c)
  done;
  !sum /. float_of_int n
