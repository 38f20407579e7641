open Opm_numkit
open Opm_basis
open Opm_signal

(** Result of an OPM simulation: the raw BPF coefficient matrix plus
    the output waveform sampled at the grid midpoints (the natural
    evaluation points of a BPF expansion). *)

type t = {
  grid : Grid.t;
  x : Mat.t;  (** [n×m] BPF coefficients of the state *)
  outputs : Waveform.t;
}

val make : grid:Grid.t -> x:Mat.t -> c:Mat.t -> output_names:string array -> unit -> t
(** [make ~grid ~x ~c ~output_names ()] samples the outputs [C·X] at
    the grid midpoints; [x] is kept, not copied. *)

val output : t -> int -> Vec.t
(** Row [i] of the output waveform. *)
