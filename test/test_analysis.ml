(* Tests for the dataflow engine and the QIR static analyses: qubit
   lifetime checking (QL001-QL004), dead-quantum-code analysis (QD001 /
   the quantum-dce pass), constant-address proofs (QA001, proved-static
   addressing upgrades) and the lint driver. *)

open Llvm_ir
open Qir
open Qruntime
open Qir_analysis

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let parse = Parser.parse_module

let rules ds = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.rule) ds
let has_rule r ds = List.mem r (rules ds)
let count_rule r ds = List.length (List.filter (String.equal r) (rules ds))

let count_calls_to m callee =
  List.fold_left
    (fun acc (f : Func.t) ->
      Func.fold_instrs f acc (fun acc (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call (_, c, _) when String.equal c callee -> acc + 1
          | _ -> acc))
    0 m.Ir_module.funcs

(* ------------------------------------------------------------------ *)
(* The generic engine                                                   *)

(* A forward reachability problem with branch pruning: blocks behind a
   constant-false edge are never reached, and a diamond join merges the
   facts of both feasible predecessors. *)
module Labels = struct
  type t = Cfg.SSet.t

  let bottom = Cfg.SSet.empty
  let equal = Cfg.SSet.equal
  let join = Cfg.SSet.union
end

module FwdLabels = Dataflow.Forward (Labels)

let test_forward_join_and_pruning () =
  let m =
    parse
      {|
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  br i1 false, label %dead, label %exit
dead:
  br label %exit
exit:
  ret void
}|}
  in
  let f = Ir_module.find_func_exn m "f" in
  let cfg = Cfg.of_func f in
  let tf =
    {
      FwdLabels.instr = (fun _ _ fact -> fact);
      FwdLabels.term =
        (fun label term fact ->
          let fact = Cfg.SSet.add label fact in
          match term with
          | Instr.Cond_br (Operand.Const (Constant.Bool false), _, el) ->
            [ (el, fact) ]
          | _ -> FwdLabels.uniform_term label term fact);
    }
  in
  let res = FwdLabels.solve cfg tf in
  check bool_t "diamond join sees both arms" true
    (Cfg.SSet.equal
       (FwdLabels.block_in res "join")
       (Cfg.SSet.of_list [ "entry"; "a"; "b" ]));
  check bool_t "constant-false arm unreached" false
    (FwdLabels.reached res "dead");
  check bool_t "exit reached" true (FwdLabels.reached res "exit")

(* ------------------------------------------------------------------ *)
(* Lifetime analysis                                                    *)

let lint src = Lint.run (parse src)

(* One analysis of a freshly built context. *)
let const_facts m = Facts.const_facts (Facts.of_module m)
let summaries_of m = Facts.summaries (Facts.of_module m)

let prelude =
  {|
declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__rt__qubit_release(ptr)
declare ptr @__quantum__rt__qubit_allocate_array(i64)
declare void @__quantum__rt__qubit_release_array(ptr)
declare ptr @__quantum__rt__array_get_element_ptr_1d(ptr, i64)
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
declare void @__quantum__rt__result_record_output(ptr, ptr)
|}

let test_use_after_release () =
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}|})
  in
  check bool_t "QL001 reported" true (has_rule "QL001" ds)

let test_release_then_stop_is_clean () =
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|})
  in
  (* quantum-opt may note the module promotable (QO004); only errors
     and warnings count against cleanliness *)
  check int_t "no errors or warnings" 0
    (Diagnostic.errors ds + Diagnostic.warnings ds)

let test_double_release () =
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|})
  in
  check int_t "one QL002" 1 (count_rule "QL002" ds);
  check bool_t "no QL001 for the release itself" false (has_rule "QL001" ds)

let test_leak_and_array_release () =
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %qs = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  %q0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %qs, i64 0)
  call void @__quantum__qis__h__body(ptr %q0)
  call void @__quantum__qis__mz__body(ptr %q0, ptr null)
  ret void
}|})
  in
  check int_t "one QL003 leak" 1 (count_rule "QL003" ds);
  (* releasing the array silences it *)
  let ds' =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %qs = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  %q0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %qs, i64 0)
  call void @__quantum__qis__h__body(ptr %q0)
  call void @__quantum__qis__mz__body(ptr %q0, ptr null)
  call void @__quantum__rt__qubit_release_array(ptr %qs)
  ret void
}|})
  in
  check int_t "no errors or warnings after release" 0
    (Diagnostic.errors ds' + Diagnostic.warnings ds')

let test_read_before_measure () =
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  check int_t "one QL004" 1 (count_rule "QL004" ds);
  let ds' =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  ret void
}|})
  in
  check bool_t "measured first is clean" false (has_rule "QL004" ds')

let test_branch_release_no_false_positive () =
  (* released on one path only: a later use is a maybe, not a definite
     use-after-release — no QL001; the path-dependent leak is a QL003 *)
  let ds =
    lint
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %r, label %then, label %join
then:
  call void @__quantum__rt__qubit_release(ptr %q)
  br label %join
join:
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}|})
  in
  check bool_t "no definite use-after-release" false (has_rule "QL001" ds);
  check bool_t "path-dependent leak reported" true (has_rule "QL003" ds)

let test_builder_output_is_clean () =
  List.iter
    (fun addressing ->
      let m =
        Qir_builder.build ~addressing (Qcircuit.Generate.bell ())
      in
      check int_t "builder module lints clean" 0
        (List.length (Lint.run ~notes:false m)))
    [ `Static; `Dynamic ]

(* ------------------------------------------------------------------ *)
(* Dead-quantum-code analysis / quantum-dce pass                        *)

let () = Quantum_dce.register ()

let deadgate_src =
  prelude
  ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}|}

let test_quantum_dce_removes_dead_gate () =
  let m = parse deadgate_src in
  check bool_t "QD001 reported" true (has_rule "QD001" (Lint.run m));
  let m' = Passes.Pipeline.run_pass "quantum-dce" m in
  check int_t "x removed" 0 (count_calls_to m' Names.(qis "x"));
  check int_t "h kept" 1 (count_calls_to m' Names.(qis "h"));
  (* removing the dead gate does not change the output distribution *)
  let hist = Executor.run_shots ~seed:7 ~shots:100 m in
  let hist' = Executor.run_shots ~seed:7 ~shots:100 m' in
  check bool_t "same histogram" true (hist = hist')

let test_quantum_dce_respects_entanglement () =
  let m =
    parse
      (prelude
     ^ {|
declare void @__quantum__qis__cnot__body(ptr, ptr)
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr null)
  ret void
}|})
  in
  (* h acts on an unmeasured qubit, but its effect reaches the measured
     one through the cnot: nothing is removable *)
  check bool_t "nothing dead" false (has_rule "QD001" (Lint.run m));
  let m' = Passes.Pipeline.run_pass "quantum-dce" m in
  check int_t "h kept" 1 (count_calls_to m' Names.(qis "h"));
  check int_t "cnot kept" 1 (count_calls_to m' Names.(qis "cnot"))

(* ------------------------------------------------------------------ *)
(* Constant-address analysis and proved-static addressing               *)

let phi_addr_src =
  prelude
  ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %r = call i1 @__quantum__qis__read_result__body(ptr null)
  br i1 %r, label %then, label %join
then:
  %a1 = add i64 0, 1
  br label %join
join:
  %addr = phi i64 [ 1, %entry ], [ %a1, %then ]
  %q = inttoptr i64 %addr to ptr
  call void @__quantum__qis__x__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr inttoptr (i64 1 to ptr))
  ret void
}|}

let test_const_addr_proves_phi_static () =
  let m = parse phi_addr_src in
  let s = Const_addr.summarize (const_facts m) in
  check int_t "two operands proved" 2 s.Const_addr.proved_static;
  check int_t "none left dynamic" 0 s.Const_addr.dynamic;
  check int_t "two QA001 notes" 2 (count_rule "QA001" (Lint.run m))

let test_detect_proved_upgrade () =
  let m = parse phi_addr_src in
  let r = Addressing.detect_proved m in
  (* null-addressed gates next to the phi-computed one: syntactically
     the module mixes static and dynamic addressing *)
  check bool_t "syntactically mixed" true
    (r.Addressing.syntactic = Addressing.Mixed);
  check bool_t "proved static" true (r.Addressing.proved = Addressing.Static);
  check int_t "two upgraded operands" 2 r.Addressing.upgraded_args

let test_detect_ignores_dead_allocation () =
  (* the allocation sits in an unreachable block: the program's live
     addressing is static *)
  let m =
    parse
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
dead:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}|})
  in
  check bool_t "dead allocate does not make it dynamic" true
    (Addressing.detect m = Addressing.Static)

let test_to_static_converts_where_syntactic_refuses () =
  let m = parse phi_addr_src in
  (* the seed's syntactic route rejects the phi outright *)
  check bool_t "parser refuses the phi" true
    (match Qir_parser.parse_result m with Error _ -> true | Ok _ -> false);
  (* the proved-constant rewrite converts it *)
  let m' = Addressing.to_static ~record_output:false m in
  check bool_t "now static" true (Addressing.detect m' = Addressing.Static);
  check bool_t "conforms base" true
    (Profile_check.conforms Profile.Base m');
  (* and the observable behavior is unchanged: qubit 1 is always
     flipped, qubit 0 stays uniform *)
  let shots = 300 in
  let hist = Executor.run_shots ~seed:13 ~shots m in
  let hist' = Executor.run_shots ~seed:29 ~shots m' in
  let count key h = Option.value ~default:0 (List.assoc_opt key h) in
  List.iter
    (fun h ->
      check int_t "only 01 and 11" shots (count "01" h + count "11" h))
    [ hist; hist' ];
  let frac h key = float_of_int (count key h) /. float_of_int shots in
  check bool_t "p(01) close" true
    (Float.abs (frac hist "01" -. frac hist' "01") < 0.15)

let test_profile_check_consumes_proofs () =
  (* a single-block program with a computed — but provably constant —
     address: base:static-addresses must not fire (the remaining
     classical-computation violations are expected) *)
  let m =
    parse
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %a = add i64 0, 1
  %q = inttoptr i64 %a to ptr
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  ret void
}|})
  in
  let vs = Profile_check.check Profile.Base m in
  check bool_t "no static-addresses violation" false
    (List.exists
       (fun (v : Profile_check.violation) ->
         String.equal v.Profile_check.rule "base:static-addresses")
       vs);
  check bool_t "classical computation still flagged" true
    (List.exists
       (fun (v : Profile_check.violation) ->
         String.equal v.Profile_check.rule "base:no-classical")
       vs)

(* ------------------------------------------------------------------ *)
(* Verifier and the lint driver                                         *)

let test_verifier_reports_all_phi_mismatches () =
  let m =
    parse
      {|
define void @f(i1 %c) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %x = phi i64 [ 1, %a ], [ 2, %a ], [ 3, %nosuchpred ]
  ret void
}|}
  in
  let f = Ir_module.find_func_exn m "f" in
  let vs = Verifier.check_func m f in
  let whats = List.map (fun (v : Verifier.violation) -> v.Verifier.what) vs in
  let mem sub =
    List.exists
      (fun w -> Astring.String.is_infix ~affix:sub w)
      whats
  in
  check bool_t "duplicate entries reported" true (mem "duplicate entries");
  check bool_t "missing predecessor reported" true (mem "missing an entry");
  check bool_t "non-predecessor entry reported" true (mem "non-predecessor")

let test_lint_structural_short_circuit () =
  let m =
    parse
      {|
declare void @__quantum__qis__h__body(ptr)
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr %undefined)
  ret void
}|}
  in
  let ds = Lint.run m in
  check bool_t "QV001 reported" true (has_rule "QV001" ds);
  check bool_t "only structural findings" true
    (List.for_all (String.equal "QV001") (rules ds))

(* ------------------------------------------------------------------ *)
(* Call graph                                                           *)

let diamond_with_orphan =
  prelude
  ^ {|
define void @leaf(ptr %q) {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}
define void @mid(ptr %q) {
entry:
  call void @leaf(ptr %q)
  ret void
}
define void @orphan(ptr %q) {
entry:
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @mid(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|}

let test_call_graph_basics () =
  let m = parse diamond_with_orphan in
  let cg = Call_graph.build m in
  let order = List.concat (Call_graph.sccs_bottom_up cg) in
  let pos name =
    let rec go i = function
      | [] -> Alcotest.failf "%s not in SCC order" name
      | n :: _ when String.equal n name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  check bool_t "callee before caller (leaf < mid)" true (pos "leaf" < pos "mid");
  check bool_t "callee before caller (mid < main)" true (pos "mid" < pos "main");
  check bool_t "no recursion" false (Call_graph.is_recursive cg "mid");
  check bool_t "orphan unreachable" true
    (Call_graph.unreachable_defined cg = [ "orphan" ]);
  let ds = Call_graph.findings cg in
  check int_t "one QC001" 1 (count_rule "QC001" ds);
  check int_t "no QP001" 0 (count_rule "QP001" ds)

let test_call_graph_mutual_recursion () =
  let m =
    parse
      (prelude
     ^ {|
define void @ping(ptr %q, i64 %n) {
entry:
  call void @pong(ptr %q, i64 %n)
  ret void
}
define void @pong(ptr %q, i64 %n) {
entry:
  call void @ping(ptr %q, i64 %n)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @ping(ptr null, i64 2)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  let cg = Call_graph.build m in
  check bool_t "ping recursive" true (Call_graph.is_recursive cg "ping");
  check bool_t "pong recursive" true (Call_graph.is_recursive cg "pong");
  check bool_t "main not recursive" false (Call_graph.is_recursive cg "main");
  (* the mutual pair is one SCC and is reported once per function *)
  check int_t "two QP001" 2 (count_rule "QP001" (Call_graph.findings cg));
  (* whole-module lint surfaces the same rule *)
  check bool_t "lint reports QP001" true (has_rule "QP001" (Lint.run m))

(* ------------------------------------------------------------------ *)
(* Function effect summaries                                            *)

let releasing_helper_src ~use_after =
  prelude
  ^ {|
define void @free_it(ptr %q) {
entry:
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  call void @free_it(ptr %q)
|}
  ^ (if use_after then "  call void @__quantum__qis__x__body(ptr %q)\n" else "")
  ^ {|  ret void
}|}

let test_summary_release_and_purity () =
  let m = parse (releasing_helper_src ~use_after:false) in
  let tbl = summaries_of m in
  let s =
    match Summary.find tbl "free_it" with
    | Some s -> s
    | None -> Alcotest.fail "no summary for @free_it"
  in
  check bool_t "argument released on every path" true
    s.Summary.arg_fx.(0).Summary.fx_released;
  check bool_t "argument consumed" true s.Summary.arg_fx.(0).Summary.fx_used;
  check bool_t "measures" true s.Summary.measures;
  check bool_t "not opaque" false s.Summary.opaque;
  (* a pure classical helper is quantum-free and side-effect-free *)
  let m2 =
    parse
      {|
define i64 @twice(i64 %x) {
entry:
  %y = add i64 %x, %x
  ret i64 %y
}
define void @main() "entry_point" {
entry:
  %t = call i64 @twice(i64 3)
  ret void
}|}
  in
  let tbl2 = summaries_of m2 in
  (match Summary.find tbl2 "twice" with
  | Some s ->
    check bool_t "quantum free" true (Summary.quantum_free s);
    check bool_t "side-effect free" true s.Summary.side_effect_free;
    check bool_t "controller expressible" true s.Summary.controller_ok
  | None -> Alcotest.fail "no summary for @twice")

let test_summary_returns_fresh_qubit () =
  let m =
    parse
      (prelude
     ^ {|
define ptr @make_q() {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %q)
  ret ptr %q
}
define void @main() "entry_point" {
entry:
  %q = call ptr @make_q()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|})
  in
  let tbl = summaries_of m in
  (match Summary.find tbl "make_q" with
  | Some s ->
    check bool_t "returns fresh qubit" true s.Summary.returns_fresh_qubit
  | None -> Alcotest.fail "no summary for @make_q");
  check int_t "caller releasing the returned qubit is clean" 0
    (List.length (Lint.run ~notes:false m))

(* ------------------------------------------------------------------ *)
(* Cross-call lifetime rules                                            *)

let test_cross_call_use_after_release () =
  let ds = lint (releasing_helper_src ~use_after:true) in
  check bool_t "QL001 through the summary" true (has_rule "QL001" ds);
  (* without the use, the helper-released qubit is fine (no QL003: the
     callee released it for us) *)
  check int_t "correct caller is clean" 0
    (List.length (lint (releasing_helper_src ~use_after:false)))

let test_cross_call_double_release () =
  let ds =
    lint
      (prelude
     ^ {|
define void @free_it(ptr %q) {
entry:
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @free_it(ptr %q)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}|})
  in
  check int_t "one QL002 through the summary" 1 (count_rule "QL002" ds)

let test_cross_call_leak_of_returned_qubit () =
  let factory leak =
    prelude
    ^ {|
define ptr @make_q() {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  ret ptr %q
}
define void @main() "entry_point" {
entry:
  %q = call ptr @make_q()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
|}
    ^ (if leak then ""
       else "  call void @__quantum__rt__qubit_release(ptr %q)\n")
    ^ {|  ret void
}|}
  in
  check bool_t "leaked factory qubit" true (has_rule "QL003" (lint (factory true)));
  check bool_t "released factory qubit is clean" false
    (has_rule "QL003" (lint (factory false)))

let test_helper_bodies_are_checked_too () =
  (* a double release inside a non-entry helper is reported even though
     no one calls the helper bug into the entry path *)
  let ds =
    lint
      (prelude
     ^ {|
define void @bad_helper() {
entry:
  %q = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__mz__body(ptr %q, ptr null)
  call void @__quantum__rt__qubit_release(ptr %q)
  call void @__quantum__rt__qubit_release(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @bad_helper()
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  check bool_t "QL002 inside the helper" true (has_rule "QL002" ds)

(* ------------------------------------------------------------------ *)
(* Interprocedural dead quantum code (QD002) and whole-function DCE     *)

let test_qd002_dead_classical_call () =
  let src used =
    prelude
    ^ {|
define i64 @twice(i64 %x) {
entry:
  %y = add i64 %x, %x
  ret i64 %y
}
define void @main() "entry_point" {
entry:
  %t = call i64 @twice(i64 3)
|}
    ^ (if used then
         "  %addr = inttoptr i64 %t to ptr\n\
          \  call void @__quantum__qis__mz__body(ptr %addr, ptr null)\n"
       else "  call void @__quantum__qis__mz__body(ptr null, ptr null)\n")
    ^ {|  ret void
}|}
  in
  check bool_t "unused pure call is QD002" true
    (has_rule "QD002" (lint (src false)));
  check bool_t "used result keeps the call" false
    (has_rule "QD002" (lint (src true)))

let test_qd002_dead_unitary_helper () =
  let src measured =
    prelude
    ^ {|
define void @spin(ptr %q) {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  %q0 = call ptr @__quantum__rt__qubit_allocate()
  %q1 = call ptr @__quantum__rt__qubit_allocate()
  call void @spin(ptr %q1)
  call void @__quantum__qis__mz__body(ptr %q0, ptr null)
|}
    ^ (if measured then
         "  call void @__quantum__qis__mz__body(ptr %q1, ptr inttoptr (i64 1 \
          to ptr))\n"
       else "")
    ^ {|  call void @__quantum__rt__qubit_release(ptr %q0)
  call void @__quantum__rt__qubit_release(ptr %q1)
  ret void
}|}
  in
  check bool_t "helper on unmeasured qubit is QD002" true
    (has_rule "QD002" (lint (src false)));
  check bool_t "measured qubit keeps the call" false
    (has_rule "QD002" (lint (src true)))

let test_quantum_dce_drops_unreachable_function () =
  let m = parse diamond_with_orphan in
  check bool_t "QC001 before the pass" true (has_rule "QC001" (Lint.run m));
  let m' = Passes.Pipeline.run_pass "quantum-dce" m in
  check bool_t "orphan dropped" true
    (Ir_module.find_func m' "orphan" = None);
  check bool_t "reachable helpers kept" true
    (Ir_module.find_func m' "mid" <> None
    && Ir_module.find_func m' "leaf" <> None);
  check bool_t "clean after the pass" false (has_rule "QC001" (Lint.run m'))

(* ------------------------------------------------------------------ *)
(* Interprocedural constant addresses and profile checking              *)

let threaded_addr_src =
  prelude
  ^ {|
define void @apply_x(i64 %addr) {
entry:
  %q = inttoptr i64 %addr to ptr
  call void @__quantum__qis__x__body(ptr %q)
  ret void
}
define void @mid(i64 %a) {
entry:
  call void @apply_x(i64 %a)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @mid(i64 1)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  ret void
}|}

let test_const_addr_through_calls () =
  let m = parse threaded_addr_src in
  (* the constant 1 reaches @apply_x's address through two call sites *)
  let r = Addressing.detect_proved m in
  check bool_t "proved static" true (r.Addressing.proved = Addressing.Static);
  check bool_t "at least one upgraded operand" true
    (r.Addressing.upgraded_args >= 1)

let test_to_static_through_calls () =
  let m = parse threaded_addr_src in
  check bool_t "syntactic route refuses" true
    (match Qir_parser.parse_result m with Error _ -> true | Ok _ -> false);
  let m' = Addressing.to_static ~record_output:false m in
  check bool_t "now static" true (Addressing.detect m' = Addressing.Static);
  check bool_t "conforms base" true (Profile_check.conforms Profile.Base m');
  (* distribution equivalence: qubit 1 always flipped, qubit 0 uniform *)
  let shots = 300 in
  let hist = Executor.run_shots ~seed:11 ~shots m in
  let hist' = Executor.run_shots ~seed:23 ~shots m' in
  let count key h = Option.value ~default:0 (List.assoc_opt key h) in
  List.iter
    (fun h ->
      check int_t "only 01 and 11" shots (count "01" h + count "11" h))
    [ hist; hist' ];
  let frac h key = float_of_int (count key h) /. float_of_int shots in
  check bool_t "p(01) close" true
    (Float.abs (frac hist "01" -. frac hist' "01") < 0.15)

let test_adaptive_profile_interprocedural () =
  (* calls to defined conforming helpers are fine under adaptive... *)
  let ok =
    parse
      (prelude
     ^ {|
define void @helper(ptr %q) {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @helper(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  check bool_t "internal call conforms" true
    (Profile_check.conforms Profile.Adaptive ok);
  (* ...but recursion has no lowering to any profile *)
  let rec_m =
    parse
      ({|define void @loop(i64 %n) {
entry:
  call void @loop(i64 %n)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @loop(i64 4)
  ret void
}|})
  in
  check bool_t "recursion violates adaptive" true
    (List.exists
       (fun (v : Profile_check.violation) ->
         String.equal v.Profile_check.rule "adaptive:no-recursion")
       (Profile_check.check Profile.Adaptive rec_m))

let test_classify_with_summaries () =
  let m = parse (releasing_helper_src ~use_after:false) in
  let facts = Facts.of_module m in
  let f = Ir_module.find_func_exn m "main" in
  let call_to name =
    Func.fold_instrs f None (fun acc (i : Instr.t) ->
        match i.Instr.op with
        | Instr.Call (_, c, _) when String.equal c name -> Some i
        | _ -> acc)
    |> Option.get
  in
  (* without summaries a defined callee is an opaque classical call;
     with them, its quantum effects are visible *)
  check bool_t "opaque without summaries" true
    (Qhybrid.Classify.classify_instr (Facts.without_summaries facts)
       (call_to "free_it")
    = Qhybrid.Classify.Call_classical);
  check bool_t "quantum with summaries" true
    (Qhybrid.Classify.classify_instr facts (call_to "free_it")
    = Qhybrid.Classify.Quantum)

(* ------------------------------------------------------------------ *)
(* Value-semantics quantum optimizer (qdf / qdf_opt)                    *)

let () = Qdf_opt.register ()

let opt_prelude =
  prelude
  ^ {|
declare void @__quantum__qis__rz__body(double, ptr)
declare void @__quantum__qis__cnot__body(ptr, ptr)
declare i64 @choose()
|}

let run_opt = Passes.Pipeline.run_pass "quantum-opt"

(* Bit-identical histograms, per-shot sampling: the batched sampler
   draws in a different order, so exact equality needs ~batch:false. *)
let same_histogram ?(seed = 11) ?(shots = 64) m m' =
  Executor.run_shots ~seed ~batch:false ~shots m
  = Executor.run_shots ~seed ~batch:false ~shots m'

let test_qopt_cancel_across_classical () =
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  %a = add i64 1, 2
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}|})
  in
  check bool_t "QO001 noted" true (has_rule "QO001" (Lint.run m));
  let m' = run_opt m in
  check int_t "both h removed" 0 (count_calls_to m' Names.(qis "h"));
  check bool_t "same histogram" true (same_histogram m m')

let test_qopt_merges_rotations () =
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__rz__body(double 0.25, ptr null)
  call void @__quantum__qis__rz__body(double 0.5, ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  ret void
}|})
  in
  check bool_t "QO002 noted" true (has_rule "QO002" (Lint.run m));
  let m' = run_opt m in
  check int_t "one rz left" 1 (count_calls_to m' Names.(qis "rz"));
  check bool_t "same histogram" true (same_histogram m m')

let test_qopt_merge_to_identity () =
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__rz__body(double 0.5, ptr null)
  call void @__quantum__qis__rz__body(double -0.5, ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  let m' = run_opt m in
  check int_t "identity pair removed" 0 (count_calls_to m' Names.(qis "rz"))

let test_qopt_merge_across_blocks_refused () =
  (* the scan is per-block by design: a rotation pair split across a
     branch is left alone even though the blocks are Br-connected *)
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__rz__body(double 0.25, ptr null)
  br label %next
next:
  call void @__quantum__qis__rz__body(double 0.5, ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  let m' = run_opt m in
  check int_t "cross-block merge refused" 2 (count_calls_to m' Names.(qis "rz"))

let test_qopt_alias_uncertain_refused () =
  (* %p is an array element at an unprovable index: it may or may not
     be the wire the surrounding h gates act on, so neither cancelling
     the outer pair nor commuting through the middle gate is sound *)
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %arr = call ptr @__quantum__rt__qubit_allocate_array(i64 2)
  %p0 = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %arr, i64 0)
  %i = call i64 @choose()
  %p = call ptr @__quantum__rt__array_get_element_ptr_1d(ptr %arr, i64 %i)
  call void @__quantum__qis__h__body(ptr %p0)
  call void @__quantum__qis__h__body(ptr %p)
  call void @__quantum__qis__h__body(ptr %p0)
  call void @__quantum__qis__mz__body(ptr %p0, ptr null)
  call void @__quantum__rt__qubit_release_array(ptr %arr)
  ret void
}|})
  in
  let m' = run_opt m in
  check int_t "alias-uncertain: nothing removed" 3
    (count_calls_to m' Names.(qis "h"))

let test_qopt_commute_cancel () =
  (* x on the cnot target commutes with the cnot, so the pair cancels
     across it *)
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__cnot__body(ptr null, ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  call void @__quantum__qis__mz__body(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 1 to ptr))
  call void @__quantum__rt__result_record_output(ptr null, ptr null)
  call void @__quantum__rt__result_record_output(ptr inttoptr (i64 1 to ptr), ptr null)
  ret void
}|})
  in
  let m' = run_opt m in
  check int_t "x pair cancelled through cnot" 0
    (count_calls_to m' Names.(qis "x"));
  check int_t "cnot kept" 1 (count_calls_to m' Names.(qis "cnot"));
  check bool_t "same histogram" true (same_histogram m m')

let test_qopt_release_hoist () =
  let m =
    parse
      (opt_prelude
     ^ {|
define void @main() "entry_point" {
entry:
  %a = call ptr @__quantum__rt__qubit_allocate()
  %b = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %b)
  call void @__quantum__qis__x__body(ptr %b)
  call void @__quantum__qis__mz__body(ptr %b, ptr null)
  call void @__quantum__rt__qubit_release(ptr %a)
  call void @__quantum__rt__qubit_release(ptr %b)
  ret void
}|})
  in
  check bool_t "QO003 noted" true (has_rule "QO003" (Lint.run m));
  let _, st = Qdf_opt.optimize m in
  check bool_t "release hoisted" true (st.Qdf_opt.s_hoisted > 0)

let test_qopt_promotion () =
  let m =
    Qir_builder.build ~addressing:`Dynamic (Qcircuit.Generate.bell ())
  in
  check bool_t "dynamic module is tape-ineligible" true
    (Gate_tape.extract m = None);
  check bool_t "QO004 noted" true (has_rule "QO004" (Lint.run m));
  let m', st = Qdf_opt.optimize m in
  check bool_t "promotion fired" true (st.Qdf_opt.s_promoted > 0);
  check bool_t "promoted module is tape-eligible" true
    (Gate_tape.extract m' <> None);
  check bool_t "bit-identical histogram" true
    (same_histogram ~seed:3 ~shots:50 m m')

(* Differential property: on random circuits (with seeded redundancy
   injected so the rewrites actually fire) the optimizer must preserve
   the exact per-shot histogram in both addressing styles. *)
let qopt_module ?(gates = 14) ?(salt = 77) ~addressing ~redundant ~seed n =
  let open Qcircuit in
  let c = Generate.random ~seed ~parametric:true ~gates n in
  let b =
    Circuit.Build.create ~num_qubits:c.Circuit.num_qubits
      ~num_clbits:c.Circuit.num_qubits ()
  in
  let st = Random.State.make [| seed; salt |] in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with
      | Circuit.Gate (g, qs) ->
        Circuit.Build.gate b g qs;
        if redundant && Random.State.int st 3 = 0 then
          Circuit.Build.gate b (Gate.inverse g) qs
      | _ -> ())
    c.Circuit.ops;
  for q = 0 to c.Circuit.num_qubits - 1 do
    Circuit.Build.measure b q q
  done;
  Qir_builder.build ~addressing (Circuit.Build.finish b)

let qopt_props =
  let prop (seed, n) =
    List.for_all
      (fun addressing ->
        List.for_all
          (fun redundant ->
            let m = qopt_module ~addressing ~redundant ~seed n in
            let m', _ = Qdf_opt.optimize m in
            same_histogram ~seed:(1 + (seed mod 1000)) ~shots:48 m m')
          [ false; true ])
      [ `Static; `Dynamic ]
  in
  [
    QCheck2.Test.make ~count:30
      ~name:"quantum-opt: optimized modules are distribution-equivalent"
      QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
      prop;
  ]

(* ------------------------------------------------------------------ *)
(* Quantum-opt: the maintained view against the per-round rebuild       *)

(* The round loop the maintained view replaced, kept as an oracle: every
   round rebuilds the view from scratch before cancellation and again
   before hoisting. *)
let rebuild_optimize_func ~emit ~is_entry counters (f : Func.t) =
  let fname = f.Func.name in
  let events qdf (b : Block.t) =
    Option.get (Qdf.block_events qdf b.Block.label)
  in
  let rec rounds n f =
    if n = 0 then f
    else begin
      let changed = ref false in
      let apply (f : Func.t) rewrite =
        Func.replace_blocks f
          (List.map
             (fun b ->
               match rewrite b with
               | Some (b', _) ->
                 changed := true;
                 b'
               | None -> b)
             f.Func.blocks)
      in
      let qdf = Qdf.of_func f in
      let f =
        match Qdf_opt.rewrite_thresholds qdf ~is_entry with
        | None -> f
        | Some thr ->
          apply f (fun b ->
              let min_pos = thr b.Block.label in
              if min_pos = max_int then None
              else
                Qdf_opt.scan_block qdf ~fname ~min_pos ~emit counters b
                  (events qdf b))
      in
      let qdf = Qdf.of_func f in
      let uses = Qdf_opt.use_counts f in
      let f =
        apply f (fun b ->
            Qdf_opt.hoist_block ~fname ~uses ~emit counters b (events qdf b))
      in
      if !changed then rounds (n - 1) f else f
    end
  in
  if Func.is_declaration f then f else rounds 8 f

(* The promotion the oracle pairs with it: refusals through the call
   graph and whole-module summaries, then lowering a fresh view. *)
let oracle_promote (m : Ir_module.t) =
  match Ir_module.entry_point m with
  | Some entry
    when (not (Func.is_declaration entry))
         && entry.Func.params = [] && Qdf_opt.is_dynamic entry -> (
    let facts = Facts.of_module m in
    let cg = Facts.call_graph facts in
    let name = entry.Func.name in
    let lifetime_error =
      List.exists
        (fun (d : Diagnostic.t) -> d.Diagnostic.severity = Diagnostic.Error)
        (Lifetime.check_module facts)
    in
    if Call_graph.callees cg name <> [] || Call_graph.is_recursive cg name
       || lifetime_error
    then None
    else
      match Qdf_opt.straight_chain entry with
      | Some chain -> Qdf_opt.lower m (Qdf.of_func entry) chain
      | None -> None)
  | _ -> None

let qo004_count (d : Diagnostic.t) =
  Scanf.sscanf d.Diagnostic.message
    "entry point provably lowers to static addressing (%d" Fun.id

let is_qo004 (d : Diagnostic.t) = String.equal d.Diagnostic.rule "QO004"

(* The old optimizer and the old lint notes: the rewrites' notes, then
   QO004 from promoting the module as given, before any rewrite. *)
let oracle_optimize (m : Ir_module.t) =
  let notes = ref [] in
  let emit d = notes := d :: !notes in
  let counters = { Qdf_opt.cancelled = 0; merged = 0; hoisted = 0 } in
  let entry_name = Option.map (fun (f : Func.t) -> f.Func.name) (Ir_module.entry_point m) in
  let m' =
    Ir_module.map_funcs m (fun f ->
        rebuild_optimize_func ~emit
          ~is_entry:(entry_name = Some f.Func.name)
          counters f)
  in
  let m', promoted =
    match oracle_promote m' with Some (m'', np) -> (m'', np) | None -> (m', 0)
  in
  let m' = Signatures.add_missing_declarations m' in
  let stats =
    {
      Qdf_opt.s_cancelled = counters.Qdf_opt.cancelled;
      s_merged = counters.Qdf_opt.merged;
      s_hoisted = counters.Qdf_opt.hoisted;
      s_promoted = promoted;
      s_gates_before = Qdf_opt.gate_count m;
      s_gates_after = Qdf_opt.gate_count m';
    }
  in
  let old_qo004 = Option.map snd (oracle_promote m) in
  (m', stats, List.rev !notes, old_qo004)

let print_module m = Format.asprintf "%a" Printer.pp_module m

(* New and oracle agree on the printed module, the stats and every note
   but QO004; QO004 is there exactly when the optimizer promotes, with
   its count. Returns the first disagreement. *)
let qopt_disagreement (m : Ir_module.t) =
  let m_new, st_new = Qdf_opt.optimize m in
  let notes_new = Qdf_opt.notes (Facts.of_module m) in
  let m_old, st_old, notes_old, _ = oracle_optimize m in
  if not (String.equal (print_module m_new) (print_module m_old)) then
    Some "printed module"
  else if st_new <> st_old then Some "stats"
  else if
    List.filter (fun d -> not (is_qo004 d)) notes_new <> notes_old
  then Some "notes"
  else
    match List.filter is_qo004 notes_new, st_new.Qdf_opt.s_promoted with
    | [], 0 -> None
    | [ d ], np when np > 0 && qo004_count d = np -> None
    | _ -> Some "QO004"

(* After every round of every defined function, the maintained view
   equals a fresh view of the rewritten function. Returns the first
   function and round where it does not. *)
let view_invariant_violation (m : Ir_module.t) =
  let entry_name = Option.map (fun (f : Func.t) -> f.Func.name) (Ir_module.entry_point m) in
  let counters = { Qdf_opt.cancelled = 0; merged = 0; hoisted = 0 } in
  List.find_map
    (fun (f : Func.t) ->
      let is_entry = entry_name = Some f.Func.name in
      let rec go n qdf =
        if n > 8 then None
        else
          let qdf, changed =
            Qdf_opt.round ~emit:ignore ~is_entry counters qdf
          in
          let fresh = Qdf.of_func qdf.Qdf.func in
          if
            qdf.Qdf.events <> fresh.Qdf.events
            || qdf.Qdf.qubit_alloc_sites <> fresh.Qdf.qubit_alloc_sites
          then Some (Printf.sprintf "@%s round %d" f.Func.name n)
          else if changed then go (n + 1) qdf
          else None
      in
      go 1 (Qdf.of_func f))
    (Ir_module.defined_funcs m)

let check_qopt_against_oracle tag m =
  (match view_invariant_violation m with
  | Some where -> Alcotest.failf "%s: stale view at %s" tag where
  | None -> ());
  match qopt_disagreement m with
  | Some what -> Alcotest.failf "%s: %s differs from the oracle" tag what
  | None -> ()

let styles = [ ("static", `Static); ("dynamic", `Dynamic) ]

(* Hoists in the entry and in a helper, a load-then-release group that
   moves as one unit, and a cancellable pair in the hoisting block. *)
let hoisting_module () =
  parse
    (opt_prelude
   ^ {|
define void @helper() {
entry:
  %t = call ptr @__quantum__rt__qubit_allocate()
  %u = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %t)
  call void @__quantum__qis__x__body(ptr %u)
  call void @__quantum__qis__h__body(ptr %u)
  call void @__quantum__rt__qubit_release(ptr %t)
  call void @__quantum__rt__qubit_release(ptr %u)
  ret void
}

define void @main() "entry_point" {
entry:
  %s = alloca ptr
  %a = call ptr @__quantum__rt__qubit_allocate()
  store ptr %a, ptr %s
  %b = call ptr @__quantum__rt__qubit_allocate()
  call void @__quantum__qis__h__body(ptr %a)
  call void @__quantum__qis__x__body(ptr %b)
  call void @__quantum__qis__x__body(ptr %b)
  call void @__quantum__qis__h__body(ptr %b)
  call void @__quantum__qis__mz__body(ptr %b, ptr null)
  %l = load ptr, ptr %s
  call void @__quantum__rt__qubit_release(ptr %l)
  call void @__quantum__rt__qubit_release(ptr %b)
  ret void
}|})

(* The E16 corpus (bench/main.ml), plus small random circuits and a
   module where releases hoist. *)
let test_qopt_view_matches_oracle () =
  let m = hoisting_module () in
  let _, st = Qdf_opt.optimize m in
  check int_t "hoisting module hoists twice" 2 st.Qdf_opt.s_hoisted;
  check_qopt_against_oracle "hoisting module" m;
  List.iter
    (fun (n, gates) ->
      List.iter
        (fun (style, addressing) ->
          List.iter
            (fun redundant ->
              check_qopt_against_oracle
                (Printf.sprintf "E16 %dq/%dg %s redundant=%b" n gates style
                   redundant)
                (qopt_module ~gates ~salt:91 ~addressing ~redundant
                   ~seed:(n * 13) n))
            [ false; true ])
        styles)
    [ (4, 60); (8, 200); (12, 400) ];
  for seed = 1 to 12 do
    List.iter
      (fun (style, addressing) ->
        List.iter
          (fun redundant ->
            check_qopt_against_oracle
              (Printf.sprintf "seed %d %s redundant=%b" seed style redundant)
              (qopt_module ~addressing ~redundant ~seed (2 + (seed mod 4))))
          [ false; true ])
      styles
  done

(* A cancellable pair ahead of promotion: the pair's two dynamic qubit
   operands are gone before the entry is lowered, so the lint's QO004
   count is what the optimizer rewrites, not what the unoptimized entry
   would need. *)
let test_qopt_qo004_counts_rewrites () =
  let open Qcircuit in
  let b = Circuit.Build.create ~num_qubits:2 ~num_clbits:2 () in
  Circuit.Build.gate b Gate.H [ 0 ];
  Circuit.Build.gate b Gate.X [ 1 ];
  Circuit.Build.gate b Gate.X [ 1 ];
  Circuit.Build.gate b Gate.Cx [ 0; 1 ];
  Circuit.Build.measure b 0 0;
  Circuit.Build.measure b 1 1;
  let m =
    Qir_builder.build ~addressing:`Dynamic (Circuit.Build.finish b)
  in
  let _, st = Qdf_opt.optimize m in
  check bool_t "pair cancelled" true (st.Qdf_opt.s_cancelled > 0);
  check bool_t "entry promoted" true (st.Qdf_opt.s_promoted > 0);
  let qo004 = List.filter is_qo004 (Lint.run m) in
  check int_t "one QO004" 1 (List.length qo004);
  check int_t "QO004 count = rewrites made" st.Qdf_opt.s_promoted
    (qo004_count (List.hd qo004));
  let _, _, _, before_cancelling = oracle_optimize m in
  check bool_t "promoting before cancelling counts more" true
    (match before_cancelling with
    | Some np -> np > st.Qdf_opt.s_promoted
    | None -> false)

let qopt_oracle_props =
  [
    QCheck2.Test.make ~count:40
      ~name:"quantum-opt: maintained view equals the per-round rebuild"
      QCheck2.Gen.(pair (int_range 0 100000) (int_range 2 5))
      (fun (seed, n) ->
        List.for_all
          (fun (_, addressing) ->
            List.for_all
              (fun redundant ->
                let m = qopt_module ~addressing ~redundant ~seed n in
                view_invariant_violation m = None
                && qopt_disagreement m = None)
              [ false; true ])
          styles);
  ]

(* ------------------------------------------------------------------ *)
(* QIR name tables against the string-chain lookups they replaced       *)

module Chain_names = struct
  let is_qis name =
    String.length name > 16 && String.sub name 0 16 = Names.qis_prefix

  let is_rt name =
    String.length name > 15 && String.sub name 0 15 = Names.rt_prefix

  let gate_of_qis name (params : float list) : Qcircuit.Gate.t option =
    let open Qcircuit in
    let base =
      if is_qis name then
        let rest = String.sub name 16 (String.length name - 16) in
        match String.rindex_opt rest '_' with
        | Some _ when Filename.check_suffix rest "__body" ->
          Some (String.sub rest 0 (String.length rest - 6), false)
        | Some _ when Filename.check_suffix rest "__adj" ->
          Some (String.sub rest 0 (String.length rest - 5), true)
        | _ -> None
      else None
    in
    match base with
    | None -> None
    | Some (op, adj) -> (
      let g =
        match op, params with
        | "h", [] -> Some Gate.H
        | "x", [] -> Some Gate.X
        | "y", [] -> Some Gate.Y
        | "z", [] -> Some Gate.Z
        | "s", [] -> Some Gate.S
        | "t", [] -> Some Gate.T
        | "sx", [] -> Some Gate.Sx
        | "rx", [ t ] -> Some (Gate.Rx t)
        | "ry", [ t ] -> Some (Gate.Ry t)
        | "rz", [ t ] -> Some (Gate.Rz t)
        | ("cnot" | "cx"), [] -> Some Gate.Cx
        | "cy", [] -> Some Gate.Cy
        | "cz", [] -> Some Gate.Cz
        | "swap", [] -> Some Gate.Swap
        | ("ccx" | "ccnot" | "toffoli"), [] -> Some Gate.Ccx
        | _ -> None
      in
      match g with
      | Some g when adj -> Some (Gate.inverse g)
      | g -> g)

  let find name : Signatures.signature option =
    let open Names in
    let open Signatures in
    let gate_sig ~doubles ~qubits =
      {
        ret = Ty.Void;
        args =
          List.init doubles (fun _ -> Double_arg)
          @ List.init qubits (fun _ -> Qubit);
      }
    in
    if String.equal name (qis "h") || String.equal name (qis "x")
       || String.equal name (qis "y") || String.equal name (qis "z")
       || String.equal name (qis "s") || String.equal name (qis "t")
       || String.equal name (qis_adj "s") || String.equal name (qis_adj "t")
       || String.equal name (qis "sx") || String.equal name (qis "reset")
    then Some (gate_sig ~doubles:0 ~qubits:1)
    else if String.equal name (qis "rx") || String.equal name (qis "ry")
            || String.equal name (qis "rz")
    then Some (gate_sig ~doubles:1 ~qubits:1)
    else if String.equal name (qis "cnot") || String.equal name (qis "cz")
            || String.equal name (qis "cy") || String.equal name (qis "swap")
    then Some (gate_sig ~doubles:0 ~qubits:2)
    else if String.equal name (qis "ccx") then
      Some (gate_sig ~doubles:0 ~qubits:3)
    else if String.equal name qis_mz then
      Some { ret = Ty.Void; args = [ Qubit; Result ] }
    else if String.equal name qis_m then Some { ret = Ty.Ptr; args = [ Qubit ] }
    else if String.equal name rt_read_result then
      Some { ret = Ty.I1; args = [ Result ] }
    else if String.equal name rt_qubit_allocate then
      Some { ret = Ty.Ptr; args = [] }
    else if String.equal name rt_qubit_allocate_array then
      Some { ret = Ty.Ptr; args = [ Int_arg Ty.I64 ] }
    else if String.equal name rt_qubit_release then
      Some { ret = Ty.Void; args = [ Qubit ] }
    else if String.equal name rt_qubit_release_array then
      Some { ret = Ty.Void; args = [ Ptr_arg ] }
    else if String.equal name rt_array_create_1d then
      Some { ret = Ty.Ptr; args = [ Int_arg Ty.I32; Int_arg Ty.I64 ] }
    else if String.equal name rt_array_get_element_ptr_1d then
      Some { ret = Ty.Ptr; args = [ Ptr_arg; Int_arg Ty.I64 ] }
    else if String.equal name rt_array_get_size_1d then
      Some { ret = Ty.I64; args = [ Ptr_arg ] }
    else if String.equal name rt_array_update_reference_count
            || String.equal name rt_result_update_reference_count
    then Some { ret = Ty.Void; args = [ Ptr_arg; Int_arg Ty.I32 ] }
    else if String.equal name rt_result_get_one
            || String.equal name rt_result_get_zero
    then Some { ret = Ty.Ptr; args = [] }
    else if String.equal name rt_result_equal then
      Some { ret = Ty.I1; args = [ Result; Result ] }
    else if String.equal name rt_result_record_output then
      Some { ret = Ty.Void; args = [ Result; Ptr_arg ] }
    else if String.equal name rt_array_record_output then
      Some { ret = Ty.Void; args = [ Int_arg Ty.I64; Ptr_arg ] }
    else if String.equal name rt_initialize then
      Some { ret = Ty.Void; args = [ Ptr_arg ] }
    else if String.equal name rt_message then
      Some { ret = Ty.Void; args = [ Ptr_arg ] }
    else if String.equal name rt_fail then
      Some { ret = Ty.Void; args = [ Ptr_arg ] }
    else None
end

let test_name_tables_match_chains () =
  let ops =
    [ "h"; "x"; "y"; "z"; "s"; "t"; "sx"; "rx"; "ry"; "rz"; "cnot"; "cz";
      "cy"; "swap"; "ccx"; "reset"; "mz"; "m"; "read_result";
      (* alternates *) "cx"; "ccnot"; "toffoli" ]
  in
  let rt =
    Names.
      [ rt_qubit_allocate; rt_qubit_allocate_array; rt_qubit_release;
        rt_qubit_release_array; rt_array_create_1d;
        rt_array_get_element_ptr_1d; rt_array_get_size_1d;
        rt_array_update_reference_count; rt_result_get_one;
        rt_result_get_zero; rt_result_equal;
        rt_result_update_reference_count; rt_result_record_output;
        rt_array_record_output; rt_initialize; rt_message; rt_fail ]
  in
  let near_misses =
    [ ""; Names.qis_prefix; Names.rt_prefix; "__quantum__qis_"; "__quantum__rt_";
      "__quantum__qis__h"; "__quantum__qis__h__ctl"; "__quantum__qis__h_body";
      "__quantum__qis__h__body_"; "__quantum__qis__h__adjoint";
      "__quantum__qis____body"; "__quantum__qis__hh__body";
      "__quantum__rt__qubit_allocatex"; "__quantum__QIS__h__body";
      "x__quantum__qis__h__body"; "abcdefghijklmno"; "abcdefghijklmnop";
      "__quantum__rt__x"; "__quantum__qis_x" ]
  in
  let names =
    List.concat_map (fun op -> [ Names.qis op; Names.qis_adj op ]) ops
    @ rt
    @ List.map (fun n -> n ^ "__body") rt
    @ near_misses
  in
  check bool_t "15- and 16-character near-misses present" true
    (List.exists (fun n -> String.length n = 15) near_misses
    && List.exists (fun n -> String.length n = 16) near_misses);
  List.iter
    (fun name ->
      check bool_t ("is_qis " ^ name) (Chain_names.is_qis name)
        (Names.is_qis name);
      check bool_t ("is_rt " ^ name) (Chain_names.is_rt name)
        (Names.is_rt name);
      check bool_t ("find " ^ name) true
        (Chain_names.find name = Signatures.find name);
      List.iter
        (fun params ->
          check bool_t ("gate_of_qis " ^ name) true
            (Chain_names.gate_of_qis name params
            = Names.gate_of_qis name params))
        [ []; [ 0.5 ]; [ 0.25; 0.75 ] ])
    names

(* ------------------------------------------------------------------ *)
(* Interprocedural constant addresses: the worklist fixpoint           *)

(* The round-robin loop the worklist replaced, kept as an oracle and
   without its old round bound: re-analyze every defined function in
   module order until one whole round hardens no parameter. *)
let round_robin_facts (m : Ir_module.t) =
  let defined = Ir_module.defined_funcs m in
  let entry =
    match Ir_module.entry_point m with
    | Some f when not (Func.is_declaration f) -> Some f.Func.name
    | None | Some _ -> None
  in
  let param_lats = Hashtbl.create 8 in
  List.iter
    (fun (f : Func.t) ->
      let root =
        match entry with Some e -> String.equal f.Func.name e | None -> true
      in
      Hashtbl.replace param_lats f.Func.name
        (Array.make (List.length f.Func.params)
           (if root then Const_addr.Varying else Const_addr.Unknown)))
    defined;
  let per_func = Hashtbl.create 8 in
  let reanalyze (f : Func.t) =
    let facts =
      Const_addr.analyze ~params:(Hashtbl.find param_lats f.Func.name) f
    in
    Hashtbl.replace per_func f.Func.name facts;
    facts
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Func.t) ->
        List.iter
          (fun (callee, lats) ->
            match Hashtbl.find_opt param_lats callee with
            | Some target when Array.length target = List.length lats ->
              List.iteri
                (fun i lat ->
                  let joined = Const_addr.join_clat target.(i) lat in
                  if not (Const_addr.clat_equal joined target.(i)) then begin
                    target.(i) <- joined;
                    changed := true
                  end)
                lats
            | Some _ | None -> ())
          (reanalyze f).Const_addr.call_args)
      defined
  done;
  List.iter
    (fun (f : Func.t) ->
      let ps = Hashtbl.find param_lats f.Func.name in
      if Array.exists (fun l -> l = Const_addr.Unknown) ps then begin
        Array.iteri
          (fun i l ->
            if l = Const_addr.Unknown then ps.(i) <- Const_addr.Varying)
          ps;
        ignore (reanalyze f)
      end)
    defined;
  (per_func, param_lats)

let clats_equal a b =
  List.length a = List.length b && List.for_all2 Const_addr.clat_equal a b

let facts_equal (a : Const_addr.facts) (b : Const_addr.facts) =
  Const_addr.SMap.equal Constant.equal a.Const_addr.consts b.Const_addr.consts
  && Cfg.SSet.equal a.Const_addr.reached_blocks b.Const_addr.reached_blocks
  && List.length a.Const_addr.call_args = List.length b.Const_addr.call_args
  && List.for_all2
       (fun (c1, l1) (c2, l2) -> String.equal c1 c2 && clats_equal l1 l2)
       a.Const_addr.call_args b.Const_addr.call_args

(* The worklist agrees with the oracle on every defined function:
   parameter lattices, proved constants, reached blocks, call arguments.
   Returns the first disagreeing function, if any. *)
let worklist_disagreement (m : Ir_module.t) =
  let mf = const_facts m in
  let per_func, param_lats = round_robin_facts m in
  List.find_opt
    (fun (f : Func.t) ->
      let name = f.Func.name in
      let lats_ok =
        match
          (Const_addr.param_lattices mf name, Hashtbl.find_opt param_lats name)
        with
        | Some a, Some b -> clats_equal (Array.to_list a) (Array.to_list b)
        | None, None -> true
        | _ -> false
      in
      let facts_ok =
        match Hashtbl.find_opt per_func name with
        | Some b -> facts_equal (Const_addr.func_facts mf name) b
        | None -> false
      in
      not (lats_ok && facts_ok))
    (Ir_module.defined_funcs m)

let check_agrees what m =
  match worklist_disagreement m with
  | None -> ()
  | Some f ->
    Alcotest.failf "%s: worklist and oracle disagree on @%s" what f.Func.name

(* Bench E12's call chain: [funcs] helpers, each applying a gate to its
   qubit and forwarding qubit and result down; main drives [qubits]
   allocated qubits into @f0 with constant result addresses. The bench
   emits callees first (f255 ... f0, main); [callers_first] reverses the
   order of the definitions. *)
let chain_src ?(callers_first = false) ~funcs ~qubits () =
  let helper i =
    let b = Buffer.create 128 in
    Printf.bprintf b "define void @f%d(ptr %%q, ptr %%r) {\nentry:\n" i;
    Printf.bprintf b "  call void @__quantum__qis__%s__body(ptr %%q)\n"
      (if i mod 2 = 0 then "h" else "x");
    if i = funcs - 1 then
      Buffer.add_string b "  call void @__quantum__qis__mz__body(ptr %q, ptr %r)\n"
    else Printf.bprintf b "  call void @f%d(ptr %%q, ptr %%r)\n" (i + 1);
    Buffer.add_string b "  ret void\n}\n\n";
    Buffer.contents b
  in
  let main =
    let b = Buffer.create 512 in
    Buffer.add_string b "define void @main() \"entry_point\" {\nentry:\n";
    for q = 0 to qubits - 1 do
      Printf.bprintf b "  %%q%d = call ptr @__quantum__rt__qubit_allocate()\n" q
    done;
    for q = 0 to qubits - 1 do
      Printf.bprintf b "  call void @f0(ptr %%q%d, ptr inttoptr (i64 %d to ptr))\n" q q
    done;
    for q = 0 to qubits - 1 do
      Printf.bprintf b "  call void @__quantum__rt__qubit_release(ptr %%q%d)\n" q
    done;
    Buffer.add_string b "  ret void\n}\n";
    Buffer.contents b
  in
  let helpers = List.init funcs helper in
  String.concat ""
    ([
       "declare ptr @__quantum__rt__qubit_allocate()\n\
        declare void @__quantum__rt__qubit_release(ptr)\n\
        declare void @__quantum__qis__h__body(ptr)\n\
        declare void @__quantum__qis__x__body(ptr)\n\
        declare void @__quantum__qis__mz__body(ptr, ptr)\n\n";
     ]
    @ (if callers_first then (main ^ "\n") :: helpers
       else List.rev helpers @ [ main ]))

let ipo_prelude =
  {|declare ptr @__quantum__rt__qubit_allocate()
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__x__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
|}

(* Two paths hand @bottom different constants for %q (joins to
   Varying) and the same constant for %r (stays Cst). *)
let diamond_src =
  ipo_prelude
  ^ {|
define void @bottom(ptr %q, ptr %r) {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  call void @__quantum__qis__mz__body(ptr %q, ptr %r)
  ret void
}
define void @left() {
entry:
  call void @bottom(ptr inttoptr (i64 1 to ptr), ptr inttoptr (i64 3 to ptr))
  ret void
}
define void @right() {
entry:
  call void @bottom(ptr inttoptr (i64 2 to ptr), ptr inttoptr (i64 3 to ptr))
  ret void
}
define void @main() "entry_point" {
entry:
  call void @left()
  call void @right()
  ret void
}|}

let mutual_src =
  ipo_prelude
  ^ {|
define void @even(ptr %q, i64 %n) {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  %more = icmp sgt i64 %n, 0
  br i1 %more, label %rec, label %done
rec:
  %n1 = sub i64 %n, 1
  call void @odd(ptr %q, i64 %n1)
  br label %done
done:
  ret void
}
define void @odd(ptr %q, i64 %n) {
entry:
  call void @__quantum__qis__x__body(ptr %q)
  %n1 = sub i64 %n, 1
  call void @even(ptr %q, i64 %n1)
  ret void
}
define void @main() "entry_point" {
entry:
  call void @even(ptr inttoptr (i64 1 to ptr), i64 5)
  ret void
}|}

(* @orphan is never called: its parameter ends Varying, yet the call it
   makes still feeds @helper's lattice. *)
let unreachable_src =
  ipo_prelude
  ^ {|
define void @helper(ptr %q) {
entry:
  call void @__quantum__qis__h__body(ptr %q)
  ret void
}
define void @orphan(ptr %q) {
entry:
  call void @__quantum__qis__x__body(ptr %q)
  call void @helper(ptr inttoptr (i64 3 to ptr))
  ret void
}
define void @main() "entry_point" {
entry:
  call void @helper(ptr inttoptr (i64 3 to ptr))
  ret void
}|}

let lats_of mf name =
  match Const_addr.param_lattices mf name with
  | Some a -> Array.to_list a
  | None -> Alcotest.failf "no parameter lattices for @%s" name

let is_cst = function Const_addr.Cst _ -> true | _ -> false

let test_worklist_matches_round_robin () =
  List.iter
    (fun (funcs, qubits) ->
      List.iter
        (fun callers_first ->
          let m = parse (chain_src ~callers_first ~funcs ~qubits ()) in
          check_agrees
            (Printf.sprintf "chain %d (callers_first=%b)" funcs callers_first)
            m)
        [ false; true ])
    [ (4, 4); (16, 8); (64, 8) ];
  let diamond = parse diamond_src in
  check_agrees "diamond" diamond;
  let mf = const_facts diamond in
  check bool_t "diamond: %q joins to Varying, %r stays Cst" true
    (match lats_of mf "bottom" with
    | [ Const_addr.Varying; r ] -> is_cst r
    | _ -> false);
  let mutual = parse mutual_src in
  check_agrees "mutual recursion" mutual;
  check bool_t "mutual recursion: %q stays Cst, %n Varying" true
    (match lats_of (const_facts mutual) "odd" with
    | [ q; Const_addr.Varying ] -> is_cst q
    | _ -> false);
  let unreachable = parse unreachable_src in
  check_agrees "unreachable function" unreachable;
  let mf = const_facts unreachable in
  check bool_t "orphan's parameter ends Varying" true
    (lats_of mf "orphan" = [ Const_addr.Varying ]);
  check bool_t "helper's parameter is proved" true
    (match lats_of mf "helper" with [ q ] -> is_cst q | _ -> false)

(* The old loop stopped after 3n+3 rounds whether or not it had
   converged. Here n = 2, so it stopped after 9 rounds; each round
   hardens one more of @f's shifted parameters, so %a1..%a4 were left at
   their optimistic Cst 1 and a false QA001 note claimed @f's H target
   static. From depth 12 on %a1 is 2. *)
let early_stop_src =
  let params = List.init 12 (fun i -> Printf.sprintf "i64 %%a%d" (i + 1)) in
  let shifted = List.init 11 (fun i -> Printf.sprintf "i64 %%a%d" (i + 2)) in
  Printf.sprintf
    {|declare void @__quantum__qis__h__body(ptr)

define void @f(%s, i64 %%d) {
entry:
  %%p = inttoptr i64 %%a1 to ptr
  call void @__quantum__qis__h__body(ptr %%p)
  %%more = icmp sgt i64 %%d, 0
  br i1 %%more, label %%rec, label %%done
rec:
  %%d1 = sub i64 %%d, 1
  call void @f(%s, i64 2, i64 %%d1)
  br label %%done
done:
  ret void
}

define void @main() "entry_point" {
entry:
  call void @f(%s, i64 20)
  ret void
}|}
    (String.concat ", " params)
    (String.concat ", " shifted)
    (String.concat ", " (List.init 12 (fun _ -> "i64 1")))

let test_no_early_stop () =
  let m = parse early_stop_src in
  let mf = const_facts m in
  let lats = lats_of mf "f" in
  check int_t "13 parameters" 13 (List.length lats);
  check bool_t "every parameter of @f is Varying" true
    (List.for_all (fun l -> l = Const_addr.Varying) lats);
  check int_t "no QA001 from the notes" 0
    (count_rule "QA001" (Const_addr.notes mf));
  check int_t "no QA001 from the lint" 0 (count_rule "QA001" (Lint.run m))

(* A return to round-robin behaviour would re-analyze chains
   quadratically; the worklist visits each function once. *)
let test_worklist_linear_on_chains () =
  List.iter
    (fun funcs ->
      List.iter
        (fun callers_first ->
          let m = parse (chain_src ~callers_first ~funcs ~qubits:2 ()) in
          let defined = List.length (Ir_module.defined_funcs m) in
          let n = Const_addr.analyses (const_facts m) in
          if n > 2 * defined then
            Alcotest.failf
              "chain of %d (callers_first=%b): %d analyses for %d functions"
              funcs callers_first n defined)
        [ false; true ])
    [ 64; 256; 1024 ]

(* Random multi-function modules in the shape of lint_smoke's corpus:
   helpers take a qubit and an integer, derive a second address from
   the integer, and call other helpers (recursion and cycles included)
   with forwarded, derived, constant or freshly allocated arguments,
   some behind a branch on the integer; definitions come in a shuffled
   order and some helpers are never called. *)
let random_ipo_module seed =
  let st = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let nh = 1 + Random.State.int st 5 in
  let const_ptr () =
    Printf.sprintf "ptr inttoptr (i64 %d to ptr)" (Random.State.int st 3)
  in
  let call b ~qs ~ns =
    Printf.bprintf b "  call void @h%d(%s, i64 %s)\n" (Random.State.int st nh)
      (pick qs) (pick ns)
  in
  let helper i =
    let b = Buffer.create 512 in
    Printf.bprintf b "define void @h%d(ptr %%q, i64 %%n) {\nentry:\n" i;
    Printf.bprintf b "  call void @__quantum__qis__%s__body(ptr %%q)\n"
      (pick [ "h"; "x" ]);
    Printf.bprintf b "  %%a = add i64 %%n, %d\n" (Random.State.int st 2);
    Buffer.add_string b "  %p = inttoptr i64 %a to ptr\n";
    Buffer.add_string b "  call void @__quantum__qis__h__body(ptr %p)\n";
    let qs = [ "ptr %q"; "ptr %p"; const_ptr (); "ptr null" ]
    and ns = [ "%n"; "%a"; string_of_int (Random.State.int st 3) ] in
    for _ = 1 to Random.State.int st 3 do
      call b ~qs ~ns
    done;
    Printf.bprintf b "  %%c = icmp eq i64 %%n, %d\n" (Random.State.int st 3);
    Buffer.add_string b "  br i1 %c, label %then, label %done\nthen:\n";
    if Random.State.bool st then call b ~qs ~ns;
    Buffer.add_string b "  br label %done\ndone:\n  ret void\n}\n";
    Buffer.contents b
  in
  let main =
    let b = Buffer.create 512 in
    Buffer.add_string b "define void @main() \"entry_point\" {\nentry:\n";
    Buffer.add_string b "  %fresh = call ptr @__quantum__rt__qubit_allocate()\n";
    let qs = [ "ptr %fresh"; const_ptr (); const_ptr () ]
    and ns = [ "0"; "1"; string_of_int (Random.State.int st 3) ] in
    for _ = 1 to Random.State.int st 4 do
      call b ~qs ~ns
    done;
    Buffer.add_string b "  ret void\n}\n";
    Buffer.contents b
  in
  let defs =
    List.map (fun d -> (Random.State.bits st, d)) (main :: List.init nh helper)
    |> List.sort compare |> List.map snd
  in
  parse (String.concat "\n" (ipo_prelude :: defs))

let ipo_props =
  [
    QCheck2.Test.make ~count:200
      ~name:"const-addr: worklist equals the round-robin oracle"
      QCheck2.Gen.(int_range 0 1_000_000)
      (fun seed -> worklist_disagreement (random_ipo_module seed) = None);
  ]

(* ------------------------------------------------------------------ *)
(* One shared analysis context (Facts)                                  *)

(* The per-consumer wiring the shared context replaced, kept as the
   oracle: every consumer builds its own call graph, constant-address
   fixpoint and summaries, and every check builds its own value track
   against the finished summary table. *)
let oracle_facts (m : Ir_module.t) : Facts.t =
  let cg = Call_graph.build m in
  let mf = Const_addr.analyze_module cg in
  let table, _ = Summary.of_module cg mf in
  {
    Facts.m;
    call_graph = Lazy.from_val cg;
    const_facts = Lazy.from_val mf;
    summaries = Lazy.from_val (table, Hashtbl.create 0);
  }

let oracle_lint ~ipo (m : Ir_module.t) =
  match Lint.verifier_findings m with
  | _ :: _ as structural -> structural
  | [] ->
    let notes () =
      Const_addr.notes (Const_addr.analyze_module (Call_graph.build m))
      @ Qdf_opt.notes (Facts.of_module m)
    in
    if ipo then
      Call_graph.findings (Call_graph.build m)
      @ Lifetime.check_module (oracle_facts m)
      @ Quantum_dce.findings (oracle_facts m)
      @ notes ()
    else begin
      let bare = Facts.without_summaries (oracle_facts m) in
      (match Ir_module.entry_point m with
      | Some f when not (Func.is_declaration f) ->
        Lifetime.check_func bare ~is_entry:true f
      | _ -> [])
      @ Quantum_dce.findings bare @ notes ()
    end

(* The certificate before sharing: always on the shadow's own graph. *)
let oracle_certify (m : Ir_module.t) =
  let shadow, _ = Resource.normalize m in
  Resource.of_call_graph
    (Call_graph.build
       { shadow with Ir_module.source_name = m.Ir_module.source_name })

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let track_repr (vt : Value_track.t) =
  ( sorted_bindings vt.Value_track.env,
    sorted_bindings vt.Value_track.slots,
    sorted_bindings vt.Value_track.site_of_def,
    List.map
      (fun (s : Value_track.site) -> (s.Value_track.site_id, s.Value_track.site_block))
      vt.Value_track.sites )

(* Every consumer reads one [Facts.t]; each answer must equal the
   oracle's, built fresh. Returns the first disagreement. *)
let sharing_disagreement (m : Ir_module.t) =
  let shared = Facts.of_module m in
  let checks =
    [
      ("lint", fun () -> Lint.check shared = oracle_lint ~ipo:true m);
      ( "lint --ipo false",
        fun () -> Lint.check ~ipo:false shared = oracle_lint ~ipo:false m );
      ( "lifetime",
        fun () ->
          Lifetime.check_module shared = Lifetime.check_module (oracle_facts m)
      );
      ( "quantum-dce",
        fun () ->
          (Quantum_dce.analyze shared).Quantum_dce.dead
          = (Quantum_dce.analyze (oracle_facts m)).Quantum_dce.dead );
      ( "gate tape",
        fun () ->
          Gate_tape.of_facts shared
          = Gate_tape.of_facts (Facts.of_module m) );
      ("certificate", fun () -> Resource.certify shared = oracle_certify m);
      ( "kept value tracks",
        fun () ->
          let table = Facts.summaries shared in
          List.for_all
            (fun (f : Func.t) ->
              track_repr (Facts.track shared f)
              = track_repr
                  (Value_track.of_func
                     ~fresh_fns:(Summary.fresh_fns_of table) f))
            (Ir_module.defined_funcs m) );
      ( "entry constant facts",
        (* tape extraction reads the parameterless entry's module-level
           facts where it used to analyze the entry alone *)
        fun () ->
          match Ir_module.entry_point m with
          | Some e when (not (Func.is_declaration e)) && e.Func.params = [] ->
            let a = Const_addr.analyze e
            and b = Const_addr.func_facts (Facts.const_facts shared) e.Func.name in
            Const_addr.SMap.equal Constant.equal a.Const_addr.consts
              b.Const_addr.consts
            && Cfg.SSet.equal a.Const_addr.reached_blocks
                 b.Const_addr.reached_blocks
          | _ -> true );
    ]
  in
  List.find_map (fun (name, ok) -> if ok () then None else Some name) checks

let example_modules () =
  let dir = if Sys.file_exists "../examples" then "../examples" else "examples" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ll")
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in (Filename.concat dir f) in
         let text = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (f, Parser.parse_module ~source_name:f text))

let test_sharing_fixtures () =
  let fixtures =
    example_modules ()
    @ [
        ("releasing helper", parse (releasing_helper_src ~use_after:false));
        ("use after release", parse (releasing_helper_src ~use_after:true));
        ("diamond with orphan", parse diamond_with_orphan);
        ("threaded address", parse threaded_addr_src);
        ("phi address", parse phi_addr_src);
        ("mutual recursion", parse mutual_src);
        ("early stop", parse early_stop_src);
        ("chain", parse (chain_src ~funcs:12 ~qubits:3 ()));
      ]
  in
  check bool_t "the examples are found" true (List.length fixtures > 8);
  List.iter
    (fun (name, m) ->
      match sharing_disagreement m with
      | None -> ()
      | Some what -> Alcotest.failf "%s: shared %s differs from fresh" name what)
    fixtures

(* An alloca-resident loop counter: certification's mem2reg shadow
   differs from the module. *)
let counted_loop_src =
  {|declare void @__quantum__qis__h__body(ptr)

define void @main() "entry_point" {
entry:
  %i = alloca i32, align 4
  store i32 0, ptr %i, align 4
  br label %head
head:
  %1 = load i32, ptr %i, align 4
  %cond = icmp slt i32 %1, 10
  br i1 %cond, label %body, label %exit
body:
  call void @__quantum__qis__h__body(ptr null)
  %2 = add nsw i32 %1, 1
  store i32 %2, ptr %i, align 4
  br label %head
exit:
  ret void
}|}

let test_session_shares_facts () =
  let module S = Executor.Session in
  let m =
    parse
      (prelude
     ^ {|
define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  ret void
}|})
  in
  check bool_t "normalization leaves it alone" false (snd (Resource.normalize m));
  let s = S.create () in
  let cert, _, _ = S.cert_of s m in
  let facts = Option.get (S.facts s m) in
  check bool_t "certification read the entry's call graph" true
    (Lazy.is_val facts.Facts.call_graph);
  check bool_t "and built no summaries" false (Lazy.is_val facts.Facts.summaries);
  let cg = Facts.call_graph facts in
  let tape, _, _ = S.tape_of s m in
  (* the tape's lifetime check forced the summaries of those very facts,
     over the call graph certification built *)
  check bool_t "the tape read the same facts" true
    (Lazy.is_val facts.Facts.summaries);
  check bool_t "and the same call graph" true (Facts.call_graph facts == cg);
  check bool_t "both verdicts known: facts dropped" true (S.facts s m = None);
  check bool_t "certificate equals a fresh one" true (cert = oracle_certify m);
  check bool_t "tape equals a fresh one" true (tape = Gate_tape.extract m);
  (* normalization changes this one: it certifies on its shadow's own
     graph and leaves the entry's call graph unbuilt *)
  let m = parse counted_loop_src in
  check bool_t "normalization changes the module" true
    (snd (Resource.normalize m));
  let cert, _, _ = S.cert_of s m in
  let facts = Option.get (S.facts s m) in
  check bool_t "shadow certificate equals a fresh one" true
    (cert = oracle_certify m);
  check bool_t "the shadow got its own call graph" false
    (Lazy.is_val facts.Facts.call_graph);
  check int_t "the counted loop's trips are proved" 10
    cert.Resource.gates.Resource.lo

(* The Session's one entry per module against a model of the three
   separate LRU caches it replaced: every lookup must hit or miss as the
   model's does, and [is_cached] must agree after every step. *)
let test_session_lru_model () =
  let module S = Executor.Session in
  let modules =
    Array.init 5 (fun i -> parse (releasing_helper_src ~use_after:(i mod 2 = 1)))
  in
  let touch limit cache m =
    if List.memq m cache then (true, m :: List.filter (( != ) m) cache)
    else
      ( false,
        m
        :: (if List.length cache >= limit then
              List.filteri (fun i _ -> i < limit - 1) cache
            else cache) )
  in
  List.iter
    (fun (seed, limit) ->
      let st = Random.State.make [| seed |] in
      let s = S.create ~cache_limit:limit () in
      let caches = Array.make 3 [] in
      for step = 1 to 150 do
        let m = modules.(Random.State.int st (Array.length modules)) in
        let k = Random.State.int st 3 in
        let hit =
          match k with
          | 0 -> (fun (_, _, hit) -> hit) (S.compiled s m)
          | 1 -> (fun (_, _, hit) -> hit) (S.tape_of s m)
          | _ -> (fun (_, _, hit) -> hit) (S.cert_of s m)
        in
        let expected, cache = touch limit caches.(k) m in
        caches.(k) <- cache;
        if hit <> expected then
          Alcotest.failf "seed %d step %d: kind %d hit=%b, model %b" seed step k
            hit expected;
        Array.iter
          (fun m ->
            if
              S.is_cached s m
              <> (List.memq m caches.(0) || List.memq m caches.(1))
            then Alcotest.failf "seed %d step %d: is_cached disagrees" seed step)
          modules
      done)
    [ (1, 1); (2, 2); (3, 3); (4, 2); (5, 4) ]

let sharing_props =
  [
    QCheck2.Test.make ~count:100
      ~name:"facts: one shared context equals per-consumer builds"
      QCheck2.Gen.(int_range 0 1_000_000)
      (fun seed -> sharing_disagreement (random_ipo_module seed) = None);
  ]

let suite =
  [
    Alcotest.test_case "engine: forward join and pruning" `Quick
      test_forward_join_and_pruning;
    Alcotest.test_case "lifetime: use after release" `Quick
      test_use_after_release;
    Alcotest.test_case "lifetime: release is clean" `Quick
      test_release_then_stop_is_clean;
    Alcotest.test_case "lifetime: double release" `Quick test_double_release;
    Alcotest.test_case "lifetime: leak and array release" `Quick
      test_leak_and_array_release;
    Alcotest.test_case "lifetime: read before measure" `Quick
      test_read_before_measure;
    Alcotest.test_case "lifetime: branch release, no false positive" `Quick
      test_branch_release_no_false_positive;
    Alcotest.test_case "lifetime: builder output is clean" `Quick
      test_builder_output_is_clean;
    Alcotest.test_case "quantum-dce: removes dead gate" `Quick
      test_quantum_dce_removes_dead_gate;
    Alcotest.test_case "quantum-dce: respects entanglement" `Quick
      test_quantum_dce_respects_entanglement;
    Alcotest.test_case "const-addr: proves phi static" `Quick
      test_const_addr_proves_phi_static;
    Alcotest.test_case "const-addr: detect_proved upgrade" `Quick
      test_detect_proved_upgrade;
    Alcotest.test_case "addressing: dead allocate ignored" `Quick
      test_detect_ignores_dead_allocation;
    Alcotest.test_case "addressing: to_static via proofs" `Quick
      test_to_static_converts_where_syntactic_refuses;
    Alcotest.test_case "profile-check: consumes proofs" `Quick
      test_profile_check_consumes_proofs;
    Alcotest.test_case "verifier: all phi mismatches" `Quick
      test_verifier_reports_all_phi_mismatches;
    Alcotest.test_case "lint: structural short-circuit" `Quick
      test_lint_structural_short_circuit;
    Alcotest.test_case "call-graph: bottom-up SCCs and reachability" `Quick
      test_call_graph_basics;
    Alcotest.test_case "call-graph: mutual recursion (QP001)" `Quick
      test_call_graph_mutual_recursion;
    Alcotest.test_case "summary: release and purity" `Quick
      test_summary_release_and_purity;
    Alcotest.test_case "summary: returns fresh qubit" `Quick
      test_summary_returns_fresh_qubit;
    Alcotest.test_case "lifetime: cross-call use after release" `Quick
      test_cross_call_use_after_release;
    Alcotest.test_case "lifetime: cross-call double release" `Quick
      test_cross_call_double_release;
    Alcotest.test_case "lifetime: leak of returned qubit" `Quick
      test_cross_call_leak_of_returned_qubit;
    Alcotest.test_case "lifetime: helper bodies checked" `Quick
      test_helper_bodies_are_checked_too;
    Alcotest.test_case "quantum-dce: QD002 dead classical call" `Quick
      test_qd002_dead_classical_call;
    Alcotest.test_case "quantum-dce: QD002 dead unitary helper" `Quick
      test_qd002_dead_unitary_helper;
    Alcotest.test_case "quantum-dce: drops unreachable function" `Quick
      test_quantum_dce_drops_unreachable_function;
    Alcotest.test_case "const-addr: threaded through calls" `Quick
      test_const_addr_through_calls;
    Alcotest.test_case "addressing: to_static through calls" `Quick
      test_to_static_through_calls;
    Alcotest.test_case "profile-check: adaptive interprocedural" `Quick
      test_adaptive_profile_interprocedural;
    Alcotest.test_case "classify: summaries reveal callee effects" `Quick
      test_classify_with_summaries;
    Alcotest.test_case "quantum-opt: cancels across classical instr" `Quick
      test_qopt_cancel_across_classical;
    Alcotest.test_case "quantum-opt: merges adjacent rotations" `Quick
      test_qopt_merges_rotations;
    Alcotest.test_case "quantum-opt: merges to identity" `Quick
      test_qopt_merge_to_identity;
    Alcotest.test_case "quantum-opt: refuses merge across blocks" `Quick
      test_qopt_merge_across_blocks_refused;
    Alcotest.test_case "quantum-opt: refuses alias-uncertain wires" `Quick
      test_qopt_alias_uncertain_refused;
    Alcotest.test_case "quantum-opt: cancels through a commuting gate" `Quick
      test_qopt_commute_cancel;
    Alcotest.test_case "quantum-opt: hoists a late release" `Quick
      test_qopt_release_hoist;
    Alcotest.test_case "quantum-opt: promotes to static addressing" `Quick
      test_qopt_promotion;
    Alcotest.test_case "quantum-opt: maintained view equals the rebuild"
      `Quick test_qopt_view_matches_oracle;
    Alcotest.test_case "quantum-opt: QO004 counts what is rewritten" `Quick
      test_qopt_qo004_counts_rewrites;
    Alcotest.test_case "names: tables equal the string chains" `Quick
      test_name_tables_match_chains;
    Alcotest.test_case "const-addr: worklist equals round-robin" `Quick
      test_worklist_matches_round_robin;
    Alcotest.test_case "const-addr: no early stop on deep shifts" `Quick
      test_no_early_stop;
    Alcotest.test_case "const-addr: linear analyses on chains" `Quick
      test_worklist_linear_on_chains;
    Alcotest.test_case "facts: shared context equals fresh builds" `Quick
      test_sharing_fixtures;
    Alcotest.test_case "facts: session tape and certificate share facts"
      `Quick test_session_shares_facts;
    Alcotest.test_case "session: per-kind LRU equals three caches" `Quick
      test_session_lru_model;
  ]
  @ List.map QCheck_alcotest.to_alcotest qopt_props
  @ List.map QCheck_alcotest.to_alcotest qopt_oracle_props
  @ List.map QCheck_alcotest.to_alcotest ipo_props
  @ List.map QCheck_alcotest.to_alcotest sharing_props
