open Opm_numkit

(** Block-pulse functions and their operational matrices — the basis the
    paper develops OPM with (§II, §III-B, §IV).

    On a grid with intervals [[t_i, t_{i+1})] the BPF [φ_i] is the
    indicator of interval [i]. A function is represented by its
    interval-average coefficients (eq. 2); integration and
    differentiation act on coefficients through the upper-triangular
    operational matrices [H] and [D = H^{−1}]. *)

val project : Grid.t -> (float -> float) -> Vec.t
(** Coefficients [f_i = (1/h_i) ∫ f] over each interval (adaptive
    Simpson on each interval). *)

val project_source : Grid.t -> Opm_signal.Source.t -> Vec.t
(** Same, but exact (closed-form interval averages) for structured
    sources. *)

val integral_matrix : Grid.t -> Mat.t
(** [H]: eq. (4) for uniform grids, eq. (17)'s [H̃] for adaptive ones
    ([H̃_{ii} = h_i/2], [H̃_{ij} = h_i] for [j > i]). *)

val differential_matrix : Grid.t -> Mat.t
(** [D = H^{−1}]: closed form
    [D_{ii} = 2/h_i], [D_{ij} = 4·(−1)^{j−i}/h_j] for [j > i]
    (uniform: eq. (7); adaptive: eq. (25)'s base matrix). *)

val fractional_differential_matrix : Grid.t -> float -> Mat.t
(** [D^α] for [α >= 0].

    - Uniform grid: [(2/h)^α · ρ_{α,m}(Q_m)] by the truncated series of
      [((1−q)/(1+q))^α] (paper eq. 21–23) — exact in the nilpotent
      algebra, works for any [α] including repeated diagonal.
    - Adaptive grid with pairwise distinct steps: Parlett recurrence on
      the triangular [D̃] (the role of the paper's eq. 25
      eigendecomposition).
    - Adaptive grid with repeated steps: raises
      [Tri.Confluent_diagonal]; make steps distinct (e.g.
      {!Grid.geometric}) or use a uniform grid.

    Integer [α] falls back to exact matrix powers. *)
