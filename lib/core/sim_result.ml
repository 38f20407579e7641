open Opm_numkit
open Opm_basis
open Opm_signal

type t = { grid : Grid.t; x : Mat.t; outputs : Waveform.t }

let make ~grid ~x ~c ~output_names () =
  let times = Grid.midpoints grid in
  (* one small C·X product: serial, because a pool handshake costs more
     than this work, and once the pool has spawned its worker domain
     every minor collection must stop it too *)
  let y = Mat.mul c x in
  let q, _ = Mat.dims y in
  let outputs = Waveform.make ~labels:output_names times (Array.init q (Mat.row y)) in
  { grid; x; outputs }

let output r i = Waveform.channel r.outputs i
