(** Parameter studies: deterministic sweeps over any
    [parameter → measurement] evaluation (typically: build a netlist
    with the parameter, stamp, simulate, measure). *)

val run :
  ?pool:Opm_parallel.Pool.t -> ('a -> float) -> 'a array -> ('a * float) array
(** Evaluate at each parameter value, in order. With [pool] the
    evaluations run in parallel (pass a pool only when [evaluate] is
    pure — most simulate-and-measure closures are); the result array
    order and contents are identical to the serial run. *)
