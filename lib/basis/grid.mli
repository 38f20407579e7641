(** Time grids for the operational-matrix method.

    A grid divides the simulation span [[0, t_end)] into [m] intervals —
    uniform ([h = t_end / m], paper §II) or adaptive with per-interval
    steps [h_0 … h_{m−1}] (paper §III-B, eq. 16). *)

type t =
  | Uniform of { t_end : float; m : int }
  | Adaptive of { steps : float array }

val uniform : t_end:float -> m:int -> t
(** Raises [Invalid_argument] unless [t_end] is finite and [> 0] and
    [m > 0]. *)

val adaptive : float array -> t
(** Raises [Invalid_argument] unless there is a step and every step is
    finite and positive. *)

val size : t -> int
(** Number of intervals [m]. *)

val t_end : t -> float

val steps : t -> float array
(** Per-interval step lengths (length [m]). *)

val boundaries : t -> float array
(** Interval boundaries [t_0 = 0 < t_1 < … < t_m = t_end]
    (length [m + 1]). *)

val midpoints : t -> float array
(** Interval midpoints (length [m]) — the natural plot grid for a BPF
    expansion. *)

val is_uniform : ?tol:float -> t -> bool

val geometric : t_end:float -> m:int -> ratio:float -> t
(** Adaptive grid with steps in geometric progression summing to
    [t_end]; [ratio ≠ 1] gives pairwise distinct steps. *)
