(** Waveform measurements — the post-processing vocabulary of circuit
    bench work (rise time, overshoot, settling, delay). All functions
    operate on one channel of a {!Waveform.t}, use linear interpolation
    between samples, and raise [Not_found] when the feature does not
    occur in the record. *)

val final_value : Waveform.t -> channel:int -> float
(** Last sample — the steady state if the record is long enough. *)

val peak : Waveform.t -> channel:int -> float * float
(** [(time, value)] of the maximum absolute excursion. *)

val crossing_time :
  ?direction:[ `Rising | `Falling | `Either ] ->
  Waveform.t ->
  channel:int ->
  level:float ->
  float
(** First time the channel crosses [level] (default [`Either]),
    linearly interpolated. [`Rising] requires the previous sample
    strictly below the level and [`Falling] strictly above; an exact
    hit on the very first sample therefore only satisfies [`Either]. *)

val rise_time :
  ?low_frac:float -> ?high_frac:float -> Waveform.t -> channel:int -> float
(** Time between the [low_frac] and [high_frac] crossings (defaults
    0.1/0.9) of the span from the initial sample to {!final_value}. *)

val overshoot : Waveform.t -> channel:int -> float
(** [(max − final)/|final|] for a rising response (0 if it never
    exceeds the final value). Raises [Invalid_argument] if the final
    value is 0. *)

val settling_time : ?band:float -> Waveform.t -> channel:int -> float
(** Time after which the channel stays within [band] (default 0.02,
    i.e. 2 %) of {!final_value}, relative to the initial-to-final
    span. *)
