(** Time-domain excitation sources.

    A source is semantically a function of time; the variants keep enough
    structure for the netlist parser to print them back and for the BPF
    projection to integrate them exactly where possible. *)

type t =
  | Dc of float  (** constant *)
  | Step of { amplitude : float; delay : float }
      (** [amplitude · 1(t − delay)] *)
  | Pulse of {
      low : float;
      high : float;
      delay : float;
      width : float;
      period : float;
    }  (** periodic rectangular pulse; [period = infinity] for one-shot *)
  | Sine of { amplitude : float; freq_hz : float; phase : float; offset : float }
  | Exp_decay of { amplitude : float; tau : float }
      (** [amplitude · e^{−t/τ}] *)
  | Ramp of { slope : float; delay : float }
  | Pwl of (float * float) list
      (** piecewise-linear (time, value) points, strictly increasing
        times; constant extrapolation outside *)
  | Fn of (float -> float)  (** escape hatch *)

val eval : t -> float -> float
(** Value at time [t]. *)

val average : t -> float -> float -> float
(** [average src a b] is [1/(b−a) ∫_a^b src]. Closed form for every
    structured variant; adaptive Simpson for [Fn]. This is the exact BPF
    coefficient rule of the paper's eq. (2). *)

val pwl : (float * float) list -> t
(** Validated PWL constructor: raises [Invalid_argument] unless times are
    strictly increasing. *)
