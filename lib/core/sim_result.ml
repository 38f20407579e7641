open Opm_numkit
open Opm_basis
open Opm_signal

type t = {
  grid : Grid.t;
  x : Mat.t;
  states : Waveform.t;
  outputs : Waveform.t;
  health : Opm_robust.Health.t option;
}

let make ?health ~grid ~x ~c ~state_names ~output_names () =
  let times = Grid.midpoints grid in
  let n, _m = Mat.dims x in
  (* row copies and one small C·X product: serial, because a pool
     handshake costs more than this work, and once the pool has spawned
     its worker domain every minor collection must stop it too *)
  let states = Waveform.make ~labels:state_names times (Array.init n (Mat.row x)) in
  let y = Mat.mul c x in
  let q, _ = Mat.dims y in
  let outputs = Waveform.make ~labels:output_names times (Array.init q (Mat.row y)) in
  { grid; x; states; outputs; health }

let output r i = Waveform.channel r.outputs i

let state r i = Waveform.channel r.states i

let health r = r.health

let health_report ?cond_limit r =
  match r.health with
  | None -> None
  | Some h -> Some (Opm_robust.Health.to_string ?cond_limit h)
