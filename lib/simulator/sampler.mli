(** Batched shot sampling: for measurement-terminal circuits (no
    mid-circuit measurement feeding later operations, no reset, no
    classical conditional), runs the fused unitary prefix once and draws
    all shots from the final probability distribution instead of
    re-simulating per shot. *)

val batchable : Qcircuit.Circuit.t -> bool
(** Whether all shots can be drawn from one final distribution. Requires:
    no conditioned op, no reset, measured clbits distinct and dense
    (0..m-1), measured qubits distinct, and no gate on an
    already-measured qubit. *)

val sample :
  ?seed:int -> ?fuse:bool -> shots:int -> Qcircuit.Circuit.t ->
  (string * int) list
(** [sample ~shots c] is a sorted histogram of measurement bitstrings
    (clbit order, measured clbits only — the same key format as the
    per-shot executor). [fuse] (default true) runs the prefix through
    {!Fusion}.

    The histogram is a function of [seed] alone: the same seed gives
    exactly the same histogram under every shard layout and Domain pool
    size, because the cumulative distribution is built bit-for-bit the
    same way ({!Statevector.cumulative_marginal}). Cost after the
    prefix: one sweep over the [2^n] amplitudes, then [log2 (2^m)]
    comparisons per shot for [m] measured qubits.

    Raises [Sim_error.Error] if [c] is not {!batchable} or [shots] is
    negative. *)

val strip_measurements : Qcircuit.Circuit.t -> Qcircuit.Circuit.t
(** The unitary prefix: the circuit with all measurements removed. *)
