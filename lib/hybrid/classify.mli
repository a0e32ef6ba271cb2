(** Instruction classification for hybrid programs (Sec. IV-B): which
    parts of a QIR program are quantum, which are classical, and which
    classical parts feed back into quantum control. *)

type instr_class =
  | Quantum  (** QIS gate / measure / reset *)
  | Result_read  (** read_result / result_equal: the feedback boundary *)
  | Runtime_bookkeeping  (** allocation, refcounts, output recording *)
  | Classical  (** arithmetic, comparisons, casts, selects, phis *)
  | Memory  (** alloca / load / store / gep *)
  | Call_classical  (** call to a non-quantum function *)

val classify_instr : Qir_analysis.Facts.t -> Llvm_ir.Instr.t -> instr_class
(** Calls to functions the facts summarize classify by the callee's
    effects — quantum-effect callees are [Quantum], pure result-reading
    callees are [Result_read], side-effect-free classical callees are
    [Classical] — instead of the blanket [Call_classical]. Under
    {!Qir_analysis.Facts.without_summaries} every such call is
    [Call_classical]. *)

val class_name : instr_class -> string

type counts = {
  quantum : int;
  result_reads : int;
  runtime : int;
  classical : int;
  memory : int;
  classical_calls : int;
}

val count_function : Qir_analysis.Facts.t -> Llvm_ir.Func.t -> counts

type segment = {
  seg_class : [ `Classical | `Quantum ];
  instrs : Llvm_ir.Instr.t list;
  feeds_quantum : bool;
      (** the segment's values reach later quantum instructions, directly
          or through branch conditions guarding them *)
  reads_results : bool;
}

val segments_of_func : Qir_analysis.Facts.t -> Llvm_ir.Func.t -> segment list
(** Maximal alternating quantum/classical runs over the entry function's
    instruction stream (in block order). *)
