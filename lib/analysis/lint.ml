(* The qir-lint driver: runs the structural verifier and the dataflow
   analyses over a module and returns one ordered diagnostic list.

   Rules:
     QV001 error    IR verifier violation (structural)
     QL001 error    use of a released qubit
     QL002 error    double release
     QL003 warning  qubit (array) never released
     QL004 error    result read before any measurement
     QD001 warning  gate affects no measured/recorded qubit
     QD002 warning  call affects no measured/recorded qubit
     QP001 error    recursion reachable from the entry point
     QC001 warning  defined function unreachable from the entry point
     QA001 note     dynamic-looking address proved static
     QO001 note     cancellable self-inverse gate pair (quantum-opt)
     QO002 note     mergeable rotations (quantum-opt)
     QO003 note     qubit releasable earlier (quantum-opt)
     QO004 note     entry provably lowers to static addressing (quantum-opt)
     QR001 e/w      qubit bound exceeds backend cap (--resources)
     QR002 warning  unbounded-trip loop on the quantum path (--resources)
     QR003 warning  declared qubit count below proven peak (--resources)
     QR004 note     T-count exceeds stabilizer eligibility (--resources)
     QR005 e/w      depth bound exceeds deadline budget (--resources)

   By default the lint is interprocedural: the whole module is checked,
   dataflow rules see callee effect summaries, and the call-graph rules
   (QP001/QC001) fire. [~ipo:false] restores the intraprocedural
   entry-point-only check (useful for comparing lint cost, see bench
   E12). A structurally broken module (any QV001) skips the dataflow
   passes: their CFG substrate assumes verifier-clean input, and piling
   derived findings on top of broken structure helps nobody. *)

open Llvm_ir

let verifier_findings (m : Ir_module.t) : Diagnostic.t list =
  List.map
    (fun (v : Verifier.violation) ->
      Diagnostic.make ~rule:"QV001" ~severity:Diagnostic.Error
        ~where:v.Verifier.where "%s" v.Verifier.what)
    (Verifier.check_module m)

(* The lint over one module version's facts: every rule reads the same
   call graph, constant-address facts and summaries. *)
let check ?(notes = true) ?(ipo = true) ?resources (facts : Facts.t) :
    Diagnostic.t list =
  let m = facts.Facts.m in
  match verifier_findings m with
  | _ :: _ as structural -> structural
  | [] ->
    (* without ipo: entry point only, every call to a defined function
       unknown — the pre-interprocedural behavior *)
    let facts = if ipo then facts else Facts.without_summaries facts in
    (if ipo then
       Call_graph.findings (Facts.call_graph facts) @ Lifetime.check_module facts
     else
       match Ir_module.entry_point m with
       | Some f when not (Func.is_declaration f) ->
         Lifetime.check_func facts ~is_entry:true f
       | _ -> [])
    @ Quantum_dce.findings facts
    @ (if notes then
         Const_addr.notes (Facts.const_facts facts) @ Qdf_opt.notes facts
       else [])
    @
    match resources with
    | None -> []
    | Some opts -> Resource_lint.check ~opts (Resource.certify facts)

let run ?notes ?ipo ?resources m = check ?notes ?ipo ?resources (Facts.of_module m)

let has_errors ds = Diagnostic.errors ds > 0
