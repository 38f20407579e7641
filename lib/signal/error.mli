(** Accuracy metrics of the paper's evaluation.

    Table I uses the global relative error of eq. (30):
    [err = 20 log10 (‖y − y_ref‖₂ / ‖y_ref‖₂)] (in dB, more negative is
    better). Table II reports an "average relative error", which we take
    as the mean over channels of the per-channel eq.-(30) metric. *)

val relative_error_db : reference:float array -> float array -> float
(** Eq. (30) on a single channel. Returns [neg_infinity] when the signals
    match exactly and [nan] when the reference is identically zero. *)

val relative_error : reference:float array -> float array -> float
(** Same, as a plain ratio (not dB). *)

val waveform_error_db : reference:Waveform.t -> Waveform.t -> float
(** Eq. (30) over all channels at once (stacked 2-norm). The test
    waveform is resampled onto the reference grid first. *)

val average_relative_error_db : reference:Waveform.t -> Waveform.t -> float
(** Table II metric: mean of the per-channel dB errors. *)
