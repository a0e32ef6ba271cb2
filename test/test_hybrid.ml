(* Tests for hybrid classical-quantum analysis: classification,
   segmentation, partitioning and coherence feasibility (Sec. IV-B). *)

open Qcircuit
open Qhybrid

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let hybrid_src =
  {|
declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
declare void @__quantum__qis__x__body(ptr)

define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %b = call i1 @__quantum__qis__read_result__body(ptr null)
  %w = zext i1 %b to i64
  %v = add i64 %w, 0
  %c = icmp eq i64 %v, 1
  br i1 %c, label %fix, label %done
fix:
  call void @__quantum__qis__x__body(ptr inttoptr (i64 1 to ptr))
  br label %done
done:
  ret void
}
|}

let parse src = Llvm_ir.Parser.parse_module src

(* classification with every call to a defined function unsummarized *)
let no_summaries m = Qir_analysis.Facts.(without_summaries (of_module m))

let test_classify_counts () =
  let m = parse hybrid_src in
  let f = Llvm_ir.Ir_module.find_func_exn m "main" in
  let counts = Classify.count_function (no_summaries m) f in
  check int_t "quantum" 3 counts.Classify.quantum;
  check int_t "result reads" 1 counts.Classify.result_reads;
  check int_t "classical" 3 counts.Classify.classical

let test_segments () =
  let m = parse hybrid_src in
  let f = Llvm_ir.Ir_module.find_func_exn m "main" in
  let segs = Classify.segments_of_func (no_summaries m) f in
  (* quantum (h, mz) / classical (read+arith) / quantum (x) *)
  check int_t "three segments" 3 (List.length segs);
  match segs with
  | [ q1; cl; q2 ] ->
    check bool_t "first quantum" true (q1.Classify.seg_class = `Quantum);
    check bool_t "middle classical" true (cl.Classify.seg_class = `Classical);
    check bool_t "middle reads results" true cl.Classify.reads_results;
    check bool_t "last quantum" true (q2.Classify.seg_class = `Quantum);
    ignore cl.Classify.feeds_quantum
  | _ -> Alcotest.fail "unexpected segmentation"

let test_partition_small_feedback_on_controller () =
  let m = parse hybrid_src in
  let plan = Partition.plan_module m in
  (* the classical decision segment is tiny and controller-expressible *)
  let classical_decisions =
    List.filter
      (fun d -> d.Partition.segment.Classify.seg_class = `Classical)
      plan.Partition.decisions
  in
  check bool_t "has classical segment" true (classical_decisions <> []);
  List.iter
    (fun d ->
      if d.Partition.segment.Classify.reads_results then
        check bool_t "feedback on controller" true
          (d.Partition.placement = Latency.Controller))
    classical_decisions;
  check bool_t "critical path below a host round-trip" true
    (plan.Partition.critical_path_ns < Latency.default.Latency.host_roundtrip_ns)

let test_partition_forces_host_for_floats () =
  (* a feedback computation with floating point cannot run on the
     controller: forced to the host despite the round-trip *)
  let src =
    {|
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
declare void @__quantum__qis__rz__body(double, ptr)

define void @main() "entry_point" {
entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %b = call i1 @__quantum__qis__read_result__body(ptr null)
  %w = zext i1 %b to i64
  %f = sitofp i64 %w to double
  %angle = fmul double %f, 0x3FF921FB54442D18
  call void @__quantum__qis__rz__body(double %angle, ptr null)
  ret void
}
|}
  in
  let plan = Partition.plan_module (parse src) in
  let forced_host =
    List.exists
      (fun d ->
        d.Partition.segment.Classify.seg_class = `Classical
        && d.Partition.placement = Latency.Host
        && d.Partition.forced)
      plan.Partition.decisions
  in
  check bool_t "float segment forced to host" true forced_host;
  check bool_t "pays the round-trip" true
    (plan.Partition.critical_path_ns
     >= Latency.default.Latency.host_roundtrip_ns)

let test_partition_async_classical_is_free () =
  (* classical code that never feeds quantum instructions costs nothing
     on the quantum critical path *)
  let src =
    {|
declare void @__quantum__qis__h__body(ptr)

define void @main() "entry_point" {
entry:
  call void @__quantum__qis__h__body(ptr null)
  %a = add i64 1, 2
  %b = mul i64 %a, 3
  ret void
}
|}
  in
  let plan = Partition.plan_module (parse src) in
  check bool_t "zero critical path cost" true
    (plan.Partition.critical_path_ns = 0.0)

let test_partition_respects_controller_budget () =
  (* a long feedback computation exceeding the controller program store *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    {|
declare void @__quantum__qis__mz__body(ptr, ptr)
declare i1 @__quantum__qis__read_result__body(ptr)
declare void @__quantum__qis__x__body(ptr)

define void @main() "entry_point" {
entry:
  call void @__quantum__qis__mz__body(ptr null, ptr null)
  %b = call i1 @__quantum__qis__read_result__body(ptr null)
  %v0 = zext i1 %b to i64
|};
  for i = 1 to 2000 do
    Buffer.add_string buf
      (Printf.sprintf "  %%v%d = add i64 %%v%d, 1\n" i (i - 1))
  done;
  Buffer.add_string buf
    {|
  %c = icmp eq i64 %v2000, 1000
  br i1 %c, label %fix, label %done
fix:
  call void @__quantum__qis__x__body(ptr null)
  br label %done
done:
  ret void
}
|};
  let plan = Partition.plan_module (parse (Buffer.contents buf)) in
  let forced_host =
    List.exists
      (fun d ->
        d.Partition.segment.Classify.seg_class = `Classical
        && d.Partition.placement = Latency.Host
        && d.Partition.forced)
      plan.Partition.decisions
  in
  check bool_t "oversized segment forced to host" true forced_host

(* ------------------------------------------------------------------ *)
(* Feasibility                                                          *)

let test_feasibility_controller_ok () =
  let c = Generate.feedback_rounds ~rounds:5 3 in
  let v = Feasibility.check ~placement:Latency.Controller c in
  check bool_t "feasible on controller" true v.Feasibility.feasible

let test_feasibility_host_rejected_with_tight_budget () =
  let params =
    { Latency.default with Latency.coherence_budget_ns = 5_000.0 }
  in
  let c = Generate.feedback_rounds ~rounds:5 3 in
  let controller = Feasibility.check ~params ~placement:Latency.Controller c in
  let host = Feasibility.check ~params ~placement:Latency.Host c in
  check bool_t "controller feasible" true controller.Feasibility.feasible;
  check bool_t "host rejected" false host.Feasibility.feasible;
  check bool_t "violations reported" true (host.Feasibility.violations <> [])

let test_feasibility_monotone_in_budget () =
  let c = Generate.feedback_rounds ~rounds:8 4 in
  let feasible_at budget =
    let params = { Latency.default with Latency.coherence_budget_ns = budget } in
    (Feasibility.check ~params ~placement:Latency.Host c).Feasibility.feasible
  in
  (* once feasible, bigger budgets stay feasible *)
  let budgets = [ 1e2; 1e3; 1e4; 1e5; 1e6 ] in
  let verdicts = List.map feasible_at budgets in
  let rec monotone = function
    | true :: false :: _ -> false
    | _ :: rest -> monotone rest
    | [] -> true
  in
  check bool_t "monotone" true (monotone verdicts);
  check bool_t "huge budget feasible" true (feasible_at 1e9)

let test_feasibility_no_feedback_is_free () =
  (* no feedback decisions: feasibility is governed only by gate and
     measurement times (serialized measurements make the last qubit wait
     ~4 * 300 ns here, well within the budget) *)
  let c = Generate.ghz 5 in
  let params = { Latency.default with Latency.coherence_budget_ns = 10_000.0 } in
  let v = Feasibility.check ~params ~placement:Latency.Host c in
  check bool_t "feasible" true v.Feasibility.feasible

let suite =
  [
    Alcotest.test_case "classify: counts" `Quick test_classify_counts;
    Alcotest.test_case "classify: segments" `Quick test_segments;
    Alcotest.test_case "partition: feedback on controller" `Quick
      test_partition_small_feedback_on_controller;
    Alcotest.test_case "partition: floats force host" `Quick
      test_partition_forces_host_for_floats;
    Alcotest.test_case "partition: async classical free" `Quick
      test_partition_async_classical_is_free;
    Alcotest.test_case "partition: controller budget" `Quick
      test_partition_respects_controller_budget;
    Alcotest.test_case "feasibility: controller ok" `Quick
      test_feasibility_controller_ok;
    Alcotest.test_case "feasibility: tight budget rejects host" `Quick
      test_feasibility_host_rejected_with_tight_budget;
    Alcotest.test_case "feasibility: monotone in budget" `Quick
      test_feasibility_monotone_in_budget;
    Alcotest.test_case "feasibility: no feedback" `Quick
      test_feasibility_no_feedback_is_free;
  ]
