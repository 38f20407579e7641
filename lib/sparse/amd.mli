(** Approximate-minimum-degree fill-reducing ordering (quotient-graph
    AMD with aggressive absorption, mass elimination and supervariable
    detection, after Amestoy–Davis–Duff as realised in CSparse).

    Operates on the symmetrized pattern [A + Aᵀ] with the diagonal
    dropped, so unsymmetric circuit pencils are accepted directly. On
    the paper's 3-D power-grid pencils AMD fill grows far slower with
    [n] than a bandwidth ordering's, which is what makes the
    n ≈ 100K Table II sizes factorable in memory. {!Slu} orders every
    pencil with it. *)

val ordering : Csr.t -> int array
(** [ordering a] returns a fill-reducing permutation [p] (new → old:
    position [i] of the reordered matrix holds original row/column
    [p.(i)]). Raises [Invalid_argument] on non-square input.
    Deterministic: identical patterns yield identical permutations. *)
