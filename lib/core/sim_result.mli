open Opm_numkit
open Opm_basis
open Opm_signal

(** Result of an OPM simulation: the raw BPF coefficient matrix plus
    waveform views of states and outputs sampled at the grid
    midpoints (the natural evaluation points of a BPF expansion). *)

type t = {
  grid : Grid.t;
  x : Mat.t;  (** [n×m] BPF coefficients of the state *)
  states : Waveform.t;
  outputs : Waveform.t;
  health : Opm_robust.Health.t option;
      (** the collector the solve was run with, when one was passed *)
}

val make :
  ?health:Opm_robust.Health.t ->
  grid:Grid.t ->
  x:Mat.t ->
  c:Mat.t ->
  state_names:string array ->
  output_names:string array ->
  unit ->
  t

val output : t -> int -> Vec.t
(** Row [i] of the output waveform. *)

val state : t -> int -> Vec.t

val health : t -> Opm_robust.Health.t option

val health_report : ?cond_limit:float -> t -> string option
(** Rendered {!Opm_robust.Health.to_string} of the carried collector. *)
