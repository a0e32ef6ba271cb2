(** Static vs. dynamic qubit addressing (Sec. IV-A).

    Detection scans reachable code only (a [qubit_allocate] in dead code
    does not make a module dynamic) and, via {!detect_proved}, consults
    the constant-address dataflow analysis
    ({!Qir_analysis.Const_addr}) to upgrade dynamically shaped operands
    it proves constant.

    Conversion goes through the circuit IR (parse, then re-emit). When
    the syntactic parser rejects a module whose addresses are
    phi-resolved constants, the proved-constant rewrite plus classical
    cleanup is applied and the parse retried, so {!to_static} converts
    programs the purely syntactic route refuses. The static result is
    the "register allocation" outcome the paper draws the analogy to
    (identity assignment — see {!Qmapping.Allocator} for the
    live-range-packing version). *)

type style = Static | Dynamic | Mixed | No_qubits

val pp_style : Format.formatter -> style -> unit

val detect : Llvm_ir.Ir_module.t -> style
(** Syntactic classification over reachable instructions: constant
    qubit addresses are static; allocations and locally computed
    addresses are dynamic. *)

type report = {
  syntactic : style;  (** what {!detect} reports *)
  proved : style;
      (** with proved-constant operands counted as static; dynamic only
          if some qubit operand remains unproved *)
  upgraded_args : int;
      (** dynamically shaped qubit operands proved constant *)
}

val scan : Qir_analysis.Facts.t -> report
(** The report over the module the facts describe, reading their
    interprocedural constant-address facts. *)

val detect_proved : Llvm_ir.Ir_module.t -> report
(** [scan] over fresh facts. *)

val to_static : ?record_output:bool -> Llvm_ir.Ir_module.t -> Llvm_ir.Ir_module.t
val to_dynamic : ?record_output:bool -> Llvm_ir.Ir_module.t -> Llvm_ir.Ir_module.t
