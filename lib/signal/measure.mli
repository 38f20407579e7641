(** Waveform measurements — the post-processing vocabulary of circuit
    bench work (rise time, overshoot, settling, delay). All functions
    operate on one channel of a {!Waveform.t}, use linear interpolation
    between samples, and raise [Not_found] when the feature does not
    occur in the record. *)

val final_value : Waveform.t -> channel:int -> float
(** Last sample — the steady state if the record is long enough. *)

val peak : Waveform.t -> channel:int -> float * float
(** [(time, value)] of the maximum absolute excursion. *)

val rise_time : Waveform.t -> channel:int -> float
(** Time between the 10 % and 90 % crossings of the span from the
    initial sample to {!final_value}; each crossing is the first sample
    interval that reaches the level, interpolated linearly. *)

val overshoot : Waveform.t -> channel:int -> float
(** [(max − final)/|final|] for a rising response (0 if it never
    exceeds the final value). Raises [Invalid_argument] if the final
    value is 0. *)

val settling_time : Waveform.t -> channel:int -> float
(** Time after which the channel stays within 2 % of {!final_value},
    relative to the initial-to-final span. *)
