(** Placement of classical segments (Sec. IV-B): deciding "which part of
    the code should be executed on the classical hardware and which part
    on the quantum hardware".

    Rules: classical segments feeding later quantum instructions are on
    the quantum critical path — the controller is preferred, but only for
    segments expressible in controller-supported operations (integer
    compute, no memory/floats/calls) that fit the program store;
    result-independent classical code runs on the host off the critical
    path, for free. *)

type decision = {
  segment : Classify.segment;
  placement : Latency.placement;
  cost_ns : float;  (** contribution to the quantum critical path *)
  forced : bool;  (** only one placement was legal *)
}

type plan = {
  decisions : decision list;
  critical_path_ns : float;
  controller_instrs : int;
}

val controller_supports : Qir_analysis.Facts.t -> Llvm_ir.Instr.t -> bool
(** A call to a defined function whose summary says [controller_ok]
    counts as supported (conceptually inlinable). *)

val segment_controller_ok : Qir_analysis.Facts.t -> Classify.segment -> bool

val plan :
  ?params:Latency.params -> Qir_analysis.Facts.t -> Classify.segment list -> plan

val plan_module : ?params:Latency.params -> Llvm_ir.Ir_module.t -> plan
(** Segments the entry point and plans it, consulting function effect
    summaries for calls. Raises [Invalid_argument] when the module has
    no defined entry point. *)

val pp_plan : Format.formatter -> plan -> unit
