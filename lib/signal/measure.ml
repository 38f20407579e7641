let channel_data w ~channel =
  (w.Waveform.times, Waveform.channel w channel)

let final_value w ~channel =
  let _, y = channel_data w ~channel in
  y.(Array.length y - 1)

let peak w ~channel =
  let times, y = channel_data w ~channel in
  let best = ref 0 in
  Array.iteri (fun i v -> if Float.abs v > Float.abs y.(!best) then best := i) y;
  (times.(!best), y.(!best))

let crossing_time ?(direction = `Either) w ~channel ~level =
  let times, y = channel_data w ~channel in
  let n = Array.length y in
  let rec go i =
    if i >= n then raise Not_found
    else begin
      let a = y.(i - 1) -. level and b = y.(i) -. level in
      let crosses =
        match direction with
        | `Rising -> a < 0.0 && b >= 0.0
        | `Falling -> a > 0.0 && b <= 0.0
        | `Either -> a *. b <= 0.0 && a <> b
      in
      if crosses then
        times.(i - 1)
        +. ((times.(i) -. times.(i - 1)) *. (level -. y.(i - 1)) /. (y.(i) -. y.(i - 1)))
      else go (i + 1)
    end
  in
  (* an exact hit on the first sample has no preceding sample, so it
     only counts for `Either — a `Rising/`Falling request must see the
     signal actually come from the required side *)
  match direction with
  | `Either when y.(0) = level -> times.(0)
  | `Either | `Rising | `Falling -> go 1

let rise_time ?(low_frac = 0.1) ?(high_frac = 0.9) w ~channel =
  let _, y = channel_data w ~channel in
  let start = y.(0) and fin = final_value w ~channel in
  let span = fin -. start in
  if span = 0.0 then invalid_arg "Measure.rise_time: flat response";
  let t_low = crossing_time w ~channel ~level:(start +. (low_frac *. span)) in
  let t_high = crossing_time w ~channel ~level:(start +. (high_frac *. span)) in
  t_high -. t_low

let overshoot w ~channel =
  let _, y = channel_data w ~channel in
  let fin = final_value w ~channel in
  if fin = 0.0 then invalid_arg "Measure.overshoot: zero final value";
  let extreme = Array.fold_left Float.max neg_infinity y in
  Float.max 0.0 ((extreme -. fin) /. Float.abs fin)

let settling_time ?(band = 0.02) w ~channel =
  let times, y = channel_data w ~channel in
  let fin = final_value w ~channel in
  let span = Float.abs (fin -. y.(0)) in
  if span = 0.0 then invalid_arg "Measure.settling_time: flat response";
  let tolerance = band *. span in
  (* last index that is OUTSIDE the band *)
  let last_outside = ref (-1) in
  Array.iteri
    (fun i v -> if Float.abs (v -. fin) > tolerance then last_outside := i)
    y;
  if !last_outside < 0 then times.(0)
  else if !last_outside = Array.length y - 1 then raise Not_found
  else times.(!last_outside + 1)
