type t = {
  times : float array;
  channels : float array array;
  labels : string array;
}

let make ?labels times channels =
  let n = Array.length times in
  for k = 1 to n - 1 do
    if times.(k) <= times.(k - 1) then
      invalid_arg "Waveform.make: times must strictly increase"
  done;
  Array.iteri
    (fun c ch ->
      if Array.length ch <> n then
        invalid_arg
          (Printf.sprintf "Waveform.make: channel %d has %d samples, expected %d"
             c (Array.length ch) n))
    channels;
  let labels =
    match labels with
    | Some l ->
        if Array.length l <> Array.length channels then
          invalid_arg "Waveform.make: label count mismatch";
        l
    | None -> Array.init (Array.length channels) (Printf.sprintf "y%d")
  in
  { times; channels; labels }

let channel_count w = Array.length w.channels

let channel w c = w.channels.(c)

let of_function ?labels times f =
  let n = Array.length times in
  if n = 0 then invalid_arg "Waveform.of_function: empty grid";
  let first = f times.(0) in
  let channels = Array.map (fun v -> Array.make n v) first in
  for k = 1 to n - 1 do
    let v = f times.(k) in
    Array.iteri (fun c x -> channels.(c).(k) <- x) v
  done;
  make ?labels times channels

let interp times values t =
  let n = Array.length times in
  if t <= times.(0) then values.(0)
  else if t >= times.(n - 1) then values.(n - 1)
  else begin
    (* binary search for the bracketing interval *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if times.(mid) <= t then lo := mid else hi := mid
    done;
    let t0 = times.(!lo) and t1 = times.(!hi) in
    let v0 = values.(!lo) and v1 = values.(!hi) in
    v0 +. ((v1 -. v0) *. (t -. t0) /. (t1 -. t0))
  end

let resample w new_times =
  let channels =
    Array.map (fun ch -> Array.map (fun t -> interp w.times ch t) new_times) w.channels
  in
  make ~labels:w.labels new_times channels

let bpf_grid ~t_end ~m =
  if m <= 0 then invalid_arg "Waveform.bpf_grid: m <= 0";
  let h = t_end /. float_of_int m in
  Array.init m (fun i -> (float_of_int i +. 0.5) *. h)

let to_csv w =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "t";
  Array.iter (fun l -> Buffer.add_char buf ','; Buffer.add_string buf l) w.labels;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun k t ->
      Buffer.add_string buf (Printf.sprintf "%.9g" t);
      Array.iter
        (fun ch -> Buffer.add_string buf (Printf.sprintf ",%.9g" ch.(k)))
        w.channels;
      Buffer.add_char buf '\n')
    w.times;
  Buffer.contents buf

let print_csv ?(oc = stdout) w = output_string oc (to_csv w)
