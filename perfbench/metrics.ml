(* Every metric the benchmark reports, with its unit and direction.
   BENCHMARK.json is printed from these tables (--emit-benchmark-json),
   so the two cannot drift apart. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

(* End-to-end metrics: reported by every workload, from untraced runs,
   with the share of the parent's median by which each may worsen. The
   timing bounds sit at the largest allowed value because the machine
   the benchmark was tuned on is itself noisy: a fixed pure-CPU loop,
   timed 60 times over 20 seconds, spread 29% (quartile distance over
   median), and closed-loop runs of one seed spread 8-23% between runs. *)
let end_to_end =
  [
    ("setup_s", "s", Lower, 0.25);
    ("programs_per_s", "1/s", Higher, 0.25);
    ("goodput_per_s", "1/s", Higher, 0.25);
    ("compile_p50_s", "s", Lower, 0.25);
    ("execute_p50_s", "s", Lower, 0.25);
    ("latency_p50_s", "s", Lower, 0.25);
    ("latency_p90_s", "s", Lower, 0.25);
    ("peak_rss_mb", "MiB", Lower, 0.2);
  ]

(* Per-layer metrics, from the traced run. *)
let per_layer =
  [
    ("llvm_ir.parse_s", "s", Lower);
    ("llvm_ir.parse_mb_per_s", "MB/s", Higher);
    ("llvm_ir.verify_s", "s", Lower);
    ("llvm_ir.bytecode_compile_s", "s", Lower);
    ("passes.optimize_s", "s", Lower);
    ("passes.instrs_in", "count", Lower);
    ("passes.instrs_out", "count", Lower);
    ("qir_analysis.lint_s", "s", Lower);
    ("qir_analysis.lint_us_per_func", "us", Lower);
    ("qir_analysis.lint_scaling", "1", Lower);
    ("qir_analysis.findings", "count", Lower);
    ("qir_analysis.qdf_opt_s", "s", Lower);
    ("qir_analysis.gates_in", "count", Lower);
    ("qir_analysis.gates_out", "count", Lower);
    ("qir_analysis.promoted_frac", "1", Higher);
    ("qir_analysis.certify_s", "s", Lower);
    ("qruntime.tier_probe_s", "s", Lower);
    ("qruntime.tape_extract_s", "s", Lower);
    ("qruntime.tape_eligible_frac", "1", Higher);
    ("qruntime.tape_replay_s", "s", Lower);
    ("qruntime.execute_s", "s", Lower);
    ("qruntime.shots_per_s", "1/s", Higher);
    ("qruntime.runs_batched", "count", Higher);
    ("qruntime.runs_tape", "count", Higher);
    ("qruntime.runs_per_shot", "count", Lower);
    ("qruntime.retries", "count", Lower);
    ("qruntime.batch_fallbacks", "count", Lower);
    ("qsim.plan_s", "s", Lower);
    ("qsim.steps", "count", Lower);
    ("qsim.gates_per_step", "1", Higher);
    ("qsim.mat1_s", "s", Lower);
    ("qsim.mat2_s", "s", Lower);
    ("qsim.diagonal_s", "s", Lower);
    ("qsim.monomial_s", "s", Lower);
    ("qsim.sparse_s", "s", Lower);
    ("qsim.dense_s", "s", Lower);
    ("qsim.sample_s", "s", Lower);
    ("qsim.sweep_gb_per_s", "GB/s", Higher);
    ("qsim.sweep_share", "1", Lower);
    ("qservice.intern_s", "s", Lower);
    ("qservice.admit_s", "s", Lower);
    ("qservice.wait_p50_s", "s", Lower);
    ("qservice.wait_p99_s", "s", Lower);
    ("qservice.run_p50_s", "s", Lower);
    ("qservice.run_batched_p50_s", "s", Lower);
    ("qservice.run_tape_p50_s", "s", Lower);
    ("qservice.run_per_shot_p50_s", "s", Lower);
    ("qservice.accepted", "count", Higher);
    ("qservice.rejected", "count", Lower);
    ("qservice.shed", "count", Lower);
    ("qservice.throttled", "count", Lower);
    ("qservice.tier_batched", "count", Higher);
    ("qservice.tier_tape", "count", Lower);
    ("qservice.tier_per_shot", "count", Lower);
    ("qservice.cache_hit_frac", "1", Higher);
    ("qservice.executor_busy_frac", "1", Higher);
    ("qservice.queue_depth_max", "count", Lower);
    ("loadgen.lag_p99_s", "s", Lower);
    ("loadgen.offered_per_s", "1/s", Higher);
    ("trace.overhead_frac", "1", Lower);
    ("trace.coverage", "1", Higher);
  ]

(* Reported beside the contract metrics (in the table and the record
   file) where the workload defines them. *)
let extra =
  [
    ("latency_p99_s", "s");
    ("jobs_per_s", "1/s");
    ("hot_latency_p99_s", "s");
    ("failed_frac", "1");
  ]

let unit_of name =
  (* "workload:metric" names the metric of one workload, and "raw.x"
     the unnormalized reading of x *)
  let after c name =
    match String.rindex_opt name c with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  let name = after ':' name in
  let name = if String.starts_with ~prefix:"raw." name then after '.' name else name in
  let find l = List.find_map (fun (n, u, _) -> if n = name then Some u else None) l in
  match List.find_map (fun (n, u, _, _) -> if n = name then Some u else None) end_to_end with
  | Some u -> u
  | None -> (
    match find per_layer with
    | Some u -> u
    | None -> (
      match List.assoc_opt name extra with
      | Some u -> u
      | None -> if String.ends_with ~suffix:"_s" name then "s" else "1"))

(* One measured value, with the number of samples behind it (0 for
   values that are not sample statistics). *)
type value = { v : float; samples : int }

let v ?(samples = 0) x = { v = x; samples }
