(* The four workloads. Each returns its metrics plus everything the
   correctness verdict needs; main.ml prints and records them. *)

open Qruntime

let now = Trace.now

type outcome = {
  attempted : int;
  failures : (string * string) list;  (** programs or jobs that errored *)
  wrong : (string * string) list;  (** outputs that failed a check *)
  nondeterministic : (string * string) list;
  e2e : (string * Metrics.value) list;
  layer : (string * Metrics.value) list;  (** traced runs only *)
  extra : (string * Metrics.value) list;
  counts : (string * int) list;  (** exact counts, compared across runs *)
  notes : string list;
  spans : Trace.span list;
}

type spec = {
  name : string;
  why : string;
  latency_limit : float;  (** seconds, for goodput *)
  gated : bool;
      (** listed in BENCHMARK.json. serve-overload is not: its cost-fair
          starvation dynamics moved programs_per_s between 128 and 376
          jobs/s and latency_p90_s between 0.53 and 1.79 s over ten
          seeds, beyond any bound a gate may use. *)
}

(* Open-loop arrival rates, fixed against the single-executor capacity
   measured for this tenant mix: 470-620 jobs per executor-busy second
   on a 2-core x86-64 container, halving in its slow phases. The mixed
   rate sits at about a fifth of it: at 300 jobs/s a slow phase tipped
   the service into overload (p90 latency 0.03 to 0.42 s over ten
   seeds), and at 150 jobs/s the p90 still spread 24% between runs,
   against 11% at 100. The overload rate sits at about twice it. *)
let mixed_rate = 100.
let overload_rate = 1200.

let specs =
  [
    {
      name = "run-wide";
      why =
        "Closed loop, 1 client: static 16-18q Clifford+T circuits, 150-300 \
         gates, 1000 shots, 1-4 MiB states; simulator kernels and sampler \
         dominate. Latency limit 1 s.";
      latency_limit = 1.0;
      gated = true;
    };
    {
      name = "run-deep";
      why =
        "Closed loop, 1 client: <=8q call chains, dynamic, computed-address, \
         loop and feedback modules; front end, passes, lint and interpreter \
         dominate. Latency limit 0.5 s.";
      latency_limit = 0.5;
      gated = true;
    };
    {
      name = "serve-mixed";
      why =
        "Open loop, Poisson 100 jobs/s (a fifth of capacity), 1 executor, \
         hot/cold/reset/feedback tenants, default_config (cost_fair on): \
         admission, caches, 3 tiers. Limit 50 ms.";
      latency_limit = 0.05;
      gated = true;
    };
    {
      name = "serve-overload";
      why =
        "Open loop, Poisson 1200 jobs/s (2x capacity), same tenants, \
         default_config so the cost_fair hot-tenant p99 shows: shedding, \
         rejection, tier ladder, throttle. Limit 250 ms.";
      latency_limit = 0.25;
      gated = false;
    };
  ]

let spec name = List.find_opt (fun s -> s.name = name) specs
let v = Metrics.v

let pct p xs = Stats.percentile p xs

(* A percentile by the reporting rule; when the sample is too small the
   metric is left out and a note says why. *)
let pct_or_note notes name p xs =
  match pct p xs with
  | Some x -> Some (name, v ~samples:(Array.length xs) x)
  | None ->
    notes :=
      Printf.sprintf "%s not reported: %d samples, the rule needs %d" name
        (Array.length xs) (Stats.min_samples p)
      :: !notes;
    None

(* The highest of p99 and p90 that the rule allows, named for itself. *)
let tail notes prefix xs =
  match Stats.percentile 0.99 xs with
  | Some x -> Some (prefix ^ "_p99_s", v ~samples:(Array.length xs) x)
  | None -> pct_or_note notes (prefix ^ "_p90_s") 0.9 xs

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; rest ] ->
          Scanf.sscanf_opt (String.trim rest) "%d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> None)
      (String.split_on_char '\n' s)
    |> Option.value ~default:0.
  | exception Sys_error _ -> 0.

(* Fill every per-layer metric the workload does not define with 0. *)
let complete_layers given =
  List.map
    (fun (name, _, _) ->
      (name, Option.value ~default:(v 0.) (List.assoc_opt name given)))
    Metrics.per_layer

(* ------------------------------------------------------------------ *)
(* The in-process flow against the real CLI, outside timing. *)

let read_histogram path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.rindex_opt line ':' with
         | Some i ->
           let key = String.sub line 0 i in
           let count = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
           Option.map
             (fun n -> ((if key = "(empty)" then "" else key), n))
             (int_of_string_opt count)
         | None -> None)

let cli_spot_check ~dir (p : Corpus.program) expected =
  let qirc = "_build/default/bin/qirc.exe" and qir_run = "_build/default/bin/qir_run.exe" in
  if not (Sys.file_exists qirc && Sys.file_exists qir_run) then
    Error "qirc / qir-run executables not built"
  else begin
    let file f = Filename.concat dir f in
    Out_channel.with_open_text (file "spot.ll") (fun oc -> output_string oc p.Corpus.text);
    let run exe args ~stdout =
      Sys.command (Filename.quote_command exe args ~stdout ~stderr:(file "spot.log"))
    in
    let rc1 =
      run qirc [ file "spot.ll"; "--optimize"; "--lint"; "-o"; file "spot-opt.ll" ]
        ~stdout:(file "spot.log")
    in
    let rc2 =
      if rc1 <> 0 then rc1
      else
        run qir_run
          [
            file "spot-opt.ll"; "--opt-quantum"; "--mem-budget"; "1GiB"; "--shots";
            string_of_int p.Corpus.shots; "--seed"; string_of_int p.Corpus.seed;
          ]
          ~stdout:(file "spot.out")
    in
    if rc2 <> 0 then Error (Printf.sprintf "CLI exited %d on %s" rc2 p.Corpus.name)
    else if read_histogram (file "spot.out") <> expected then
      Error (Printf.sprintf "CLI histogram differs from in-process on %s" p.Corpus.name)
    else Ok ()
  end

(* ------------------------------------------------------------------ *)
(* run-wide, run-deep *)

let warmup = function
  | `Wide ->
    Corpus.program ~name:"warmup" ~shape:"random" ~shots:1000 ~seed:7
      (Corpus.of_circuit
         (Corpus.measure_all
            (Qcircuit.Generate.random ~seed:7 ~parametric:false ~gates:150 16)))
  | `Deep ->
    Corpus.program ~name:"warmup" ~shape:"chain" ~shots:50 ~seed:7
      (Corpus.chain ~funcs:64 ~qubits:3)

(* What the traced pass of a run-* workload leaves for the per-layer
   metrics. *)
type traced = {
  execs_b : Run_flow.exec array;
  failures_b : (string * string) list;
  tot : Decompose.totals;
  eligible : int;  (** tape-eligible distinct programs *)
  distinct : int;
  sweep_exec : float;  (** execute seconds of the batched programs *)
}

let tier_counter counts tier =
  List.length (List.filter (fun (c : Run_flow.counts) -> c.Run_flow.tier = tier) counts)

let run_workload ~kind ~(spec : spec) ~seed ~seconds ~traced ~dir =
  let corpus = Array.of_list (match kind with `Wide -> Corpus.wide ~seed | `Deep -> Corpus.deep ~seed) in
  let order = Corpus.shuffle ~seed corpus in
  let warm = warmup kind in
  let notes = ref [] in
  (* set-up: restart the Domain pool (one domain: the process runs one
     client thread) and take one fixed program through the whole flow;
     five times, reporting the median *)
  let setups =
    Array.init 5 (fun _ ->
        let speed = Calib.sample () /. Calib.reference in
        let t0 = now () in
        Qsim.Dpool.set_domains 1;
        ignore (Run_flow.attempt ~firsts:(Hashtbl.create 1) ~req:(-1) warm);
        (now () -. t0, speed))
  in
  let min_count = max 100 (Array.length corpus) in
  (* a traced run reports per-layer metrics only, and its untraced pass
     serves as the overhead baseline, so each pass takes half the time *)
  let seconds = if traced then seconds /. 2. else seconds in
  let firsts = Hashtbl.create 64 in
  let t0 = now () in
  let execs, failures = Run_flow.loop ~seconds ~firsts ~min_count order in
  let wall = now () -. t0 in
  (* before any check, decomposition or traced pass adds its own memory *)
  let rss = peak_rss_mb () in
  (* the traced pass: the same programs, in the same order *)
  let traced_run =
    if not traced then None
    else begin
      Trace.enabled := true;
      let count = Array.length execs + List.length failures in
      let execs_b, failures_b = Run_flow.loop ~firsts ~min_count:count order in
      let first = Hashtbl.create 64 in
      Array.iter
        (fun (e : Run_flow.exec) ->
          if not (Hashtbl.mem first e.Run_flow.prog.Corpus.name) then
            Hashtbl.replace first e.Run_flow.prog.Corpus.name e)
        execs_b;
      let runs = Hashtbl.create 64 in
      Array.iter
        (fun (e : Run_flow.exec) ->
          let k = e.Run_flow.prog.Corpus.name in
          Hashtbl.replace runs k (1 + Option.value ~default:0 (Hashtbl.find_opt runs k)))
        execs_b;
      let tot = Decompose.totals () in
      let eligible = ref 0 in
      let sweep_exec = ref 0. in
      Hashtbl.iter
        (fun name (e : Run_flow.exec) ->
          let n = Hashtbl.find runs name in
          (* the module as executed, rebuilt without spans *)
          Trace.enabled := false;
          let m, _ = Run_flow.static_counts e.Run_flow.prog in
          Trace.enabled := true;
          let d =
            Decompose.run ~text:e.Run_flow.prog.Corpus.text ~tier:e.Run_flow.counts.Run_flow.tier
              ~seed:e.Run_flow.prog.Corpus.seed ~shots:e.Run_flow.prog.Corpus.shots m
          in
          if d.Decompose.tape_eligible then incr eligible;
          if d.Decompose.qsim <> None then
            Array.iter
              (fun (x : Run_flow.exec) ->
                if x.Run_flow.prog.Corpus.name = name then
                  sweep_exec := !sweep_exec +. x.Run_flow.execute)
              execs_b;
          (* a fresh session per program: every run pays the once-costs *)
          Decompose.add tot ~once:n ~per_run:n d)
        first;
      Trace.enabled := false;
      Some
        {
          execs_b;
          failures_b;
          tot;
          eligible = !eligible;
          distinct = Hashtbl.length first;
          sweep_exec = !sweep_exec;
        }
    end
  in
  let spans = Trace.all () in
  (* ---- checks, outside timing ---- *)
  let all_execs =
    match traced_run with
    | Some t -> Array.append execs t.execs_b
    | None -> execs
  in
  let failures =
    failures @ (match traced_run with Some t -> t.failures_b | None -> [])
  in
  let first = Hashtbl.create 64 in
  let wrong = ref [] and nondet = ref [] in
  Array.iter
    (fun (e : Run_flow.exec) ->
      let name = e.Run_flow.prog.Corpus.name in
      match Hashtbl.find_opt first name with
      | None -> Hashtbl.replace first name e
      | Some (f : Run_flow.exec) ->
        if not e.Run_flow.repeat_ok then
          wrong := (name, "histogram differs between runs at the same seed") :: !wrong;
        if f.Run_flow.counts <> e.Run_flow.counts then
          nondet := (name, "front-end counts differ between runs") :: !nondet)
    all_execs;
  let bad_programs = Hashtbl.create 8 in
  Hashtbl.iter
    (fun name (f : Run_flow.exec) ->
      let p = f.Run_flow.prog in
      let r = f.Run_flow.result in
      let verdict =
        if r.Executor.batched then
          Check.sampled ~probs:(Check.exact_distribution p.Corpus.circuit) r.Executor.histogram
        else Check.replayed ~text:p.Corpus.text ~seed:p.Corpus.seed ~shots:p.Corpus.shots r.Executor.histogram
      in
      match verdict with
      | Ok () -> ()
      | Error msg ->
        Hashtbl.replace bad_programs name ();
        wrong := (name, msg) :: !wrong)
    first;
  let wrong_runs =
    Array.fold_left
      (fun a (e : Run_flow.exec) ->
        if Hashtbl.mem bad_programs e.Run_flow.prog.Corpus.name then a + 1 else a)
      0 all_execs
    + List.length (List.filter (fun (n, _) -> not (Hashtbl.mem bad_programs n)) !wrong)
  in
  (* exact counts over the whole corpus, and agreement with the runs *)
  let statics =
    Array.map
      (fun p ->
        match Run_flow.static_counts p with
        | m, c ->
          let plan = if c.Run_flow.tier = `Batched then Decompose.plan_counts m else (0, 0) in
          Some (c, plan)
        | exception _ -> None)
      corpus
  in
  Array.iteri
    (fun i p ->
      match (statics.(i), Hashtbl.find_opt first p.Corpus.name) with
      | Some (s, _), Some (f : Run_flow.exec) when s <> f.Run_flow.counts ->
        nondet := (p.Corpus.name, "counts recomputed outside timing differ") :: !nondet
      | _ -> ())
    corpus;
  let dynamic = List.filter (fun p -> p.Corpus.shape = "dynamic") (Array.to_list corpus) in
  let promoted =
    List.length
      (List.filteri
         (fun i (p : Corpus.program) ->
           p.Corpus.shape = "dynamic"
           && match statics.(i) with Some (c, _) -> c.Run_flow.promoted | None -> false)
         (Array.to_list corpus))
  in
  let statics = List.filter_map Fun.id (Array.to_list statics) in
  let plans = List.map snd statics and statics = List.map fst statics in
  let sum f = List.fold_left (fun a c -> a + f c) 0 statics in
  let counts =
    [
      ("passes.instrs_in", sum (fun c -> c.Run_flow.instrs_in));
      ("passes.instrs_out", sum (fun c -> c.Run_flow.instrs_out));
      ("qir_analysis.findings", sum (fun c -> c.Run_flow.findings));
      ("qir_analysis.gates_in", sum (fun c -> c.Run_flow.gates_in));
      ("qir_analysis.gates_out", sum (fun c -> c.Run_flow.gates_out));
      ("qir_analysis.promoted", promoted);
      ("qruntime.runs_batched", tier_counter statics `Batched);
      ("qruntime.runs_tape", tier_counter statics `Tape);
      ("qruntime.runs_per_shot", tier_counter statics `Per_shot);
      ("qsim.steps", List.fold_left (fun a (steps, _) -> a + steps) 0 plans);
      ("qsim.gates", List.fold_left (fun a (_, gates) -> a + gates) 0 plans);
    ]
  in
  (* the CLI spot check: the first program in the order *)
  (match Hashtbl.find_opt first order.(0).Corpus.name with
  | Some f -> (
    match cli_spot_check ~dir order.(0) f.Run_flow.result.Executor.histogram with
    | Ok () -> notes := ("CLI spot check passed on " ^ order.(0).Corpus.name) :: !notes
    | Error msg -> wrong := ("cli", msg) :: !wrong)
  | None -> ());
  (* one row per program: runs, tier, median latency *)
  Array.iter
    (fun (p : Corpus.program) ->
      let lats =
        Array.of_list
          (List.filter_map
             (fun (e : Run_flow.exec) ->
               if e.Run_flow.prog.Corpus.name = p.Corpus.name then Some e.Run_flow.latency else None)
             (Array.to_list execs))
      in
      match Hashtbl.find_opt first p.Corpus.name with
      | Some f ->
        notes :=
          Printf.sprintf "program %s: %d runs, tier %s, median latency %.6f s" p.Corpus.name
            (Array.length lats)
            (Executor.tier_name f.Run_flow.counts.Run_flow.tier)
            (Stats.median lats)
          :: !notes
      | None -> ())
    corpus;
  (* ---- end-to-end metrics, from the untraced loop ---- *)
  let lat = Array.map (fun (e : Run_flow.exec) -> e.Run_flow.latency) execs in
  let n = Array.length execs in
  (* windows of whole passes holding at least 100 programs each *)
  let passes = (99 + Array.length corpus) / Array.length corpus in
  let windows = Stats.chunks (passes * Array.length corpus) execs in
  (* A window's speed: its median calibration time over the reference.
     Timings divide by it and rates multiply by it, so they read in
     seconds of a machine running at the reference speed. *)
  let speed w = Stats.median (Array.map (fun (e : Run_flow.exec) -> e.Run_flow.calib) w) /. Calib.reference in
  (* a program is good when correct and within the limit at the
     reference speed, the same scale its normalized latency reads in *)
  let good w (e : Run_flow.exec) =
    e.Run_flow.latency /. speed w <= spec.latency_limit
    && not (Hashtbl.mem bad_programs e.Run_flow.prog.Corpus.name)
  in
  (* programs per wall second from the first program's start to the last
     one's histogram, leaving out the calibrations between them *)
  let rate pred w =
    let last = w.(Array.length w - 1).Run_flow.finished in
    let first = w.(0).Run_flow.finished -. w.(0).Run_flow.latency in
    let calib = ref 0. in
    Array.iteri (fun i (e : Run_flow.exec) -> if i > 0 then calib := !calib +. e.Run_flow.calib_wall) w;
    let k = Array.fold_left (fun a e -> if pred w e then a + 1 else a) 0 w in
    Some (float_of_int k /. (last -. first -. !calib))
  in
  let windowed name f =
    match Stats.median_of_windows f windows with
    | Some x -> Some (name, v ~samples:n x)
    | None ->
      notes := Printf.sprintf "%s not reported: too few samples per window" name :: !notes;
      None
  in
  let pct_of p f w = Stats.percentile p (Array.map f w) in
  let timing f w = Option.map (fun x -> x /. speed w) (f w) in
  let per_s f w = Option.map (fun x -> x *. speed w) (f w) in
  let raw_and_normal =
    [
      ("programs_per_s", per_s, rate (fun _ _ -> true));
      ("goodput_per_s", per_s, rate good);
      ("compile_p50_s", timing, pct_of 0.5 (fun e -> e.Run_flow.compile));
      ("execute_p50_s", timing, pct_of 0.5 (fun e -> e.Run_flow.execute));
      ("latency_p50_s", timing, pct_of 0.5 (fun e -> e.Run_flow.latency));
      ("latency_p90_s", timing, pct_of 0.9 (fun e -> e.Run_flow.latency));
    ]
  in
  let e2e =
    List.filter_map Fun.id
      ((Some
          ( "setup_s",
            v ~samples:5 (Stats.median (Array.map (fun (dt, speed) -> dt /. speed) setups)) )
       :: List.map (fun (name, norm, f) -> windowed name (norm f)) raw_and_normal)
      @ [ Some ("peak_rss_mb", v rss) ])
  in
  let raw =
    Some ("raw.setup_s", v ~samples:5 (Stats.median (Array.map fst setups)))
    :: List.map (fun (name, _, f) -> windowed ("raw." ^ name) f) raw_and_normal
  in
  let per_window f = String.concat " " (List.map (fun w -> Printf.sprintf "%.4g" (f w)) windows) in
  let programs_raw w = Option.get (rate (fun _ _ -> true) w) in
  notes :=
    Printf.sprintf
      "per window: speed (calibration over reference) %s; programs_per_s raw %s; normalized %s"
      (per_window speed) (per_window programs_raw)
      (per_window (fun w -> programs_raw w *. speed w))
    :: !notes;
  notes :=
    Printf.sprintf "%d programs in %.2f s, %d windows of %d passes" n wall
      (List.length windows) passes
    :: !notes;
  let attempted = n + List.length failures in
  let extra =
    List.filter_map Fun.id
      (raw
      @ [
        (if n >= Stats.min_samples 0.99 then pct_or_note notes "latency_p99_s" 0.99 lat else None);
        Some
          ( "failed_frac",
            v ~samples:attempted
              (float_of_int (List.length failures + wrong_runs) /. float_of_int (max 1 attempted)) );
      ])
  in
  (* ---- per-layer metrics, from the traced pass ---- *)
  let layer =
    match traced_run with
    | None -> []
    | Some { execs_b; tot; eligible; distinct; sweep_exec; _ } ->
      let k = float_of_int (max 1 (Array.length execs_b)) in
      let req_spans = List.filter (fun (s : Trace.span) -> s.Trace.req >= 0) spans in
      let self = Trace.self_times req_spans in
      let self_of name = Option.value ~default:0. (Hashtbl.find_opt self name) in
      let per name = v ~samples:(Array.length execs_b) (self_of name /. k) in
      let bytes =
        Array.fold_left (fun a (e : Run_flow.exec) -> a + String.length e.Run_flow.prog.Corpus.text) 0 execs_b
      in
      let funcs =
        Array.fold_left (fun a (e : Run_flow.exec) -> a + e.Run_flow.counts.Run_flow.funcs) 0 execs_b
      in
      (* per-function lint cost, largest chain bucket over smallest *)
      let lint_by_req = Hashtbl.create 256 in
      List.iter
        (fun (s : Trace.span) ->
          if s.Trace.name = "qir_analysis.lint" then Hashtbl.replace lint_by_req s.Trace.req (Trace.dur s))
        req_spans;
      let chain_cost = Hashtbl.create 8 in
      Array.iteri
        (fun i (e : Run_flow.exec) ->
          if e.Run_flow.prog.Corpus.shape = "chain" then
            match Hashtbl.find_opt lint_by_req i with
            | Some d ->
              let f = e.Run_flow.counts.Run_flow.funcs in
              let s, c = Option.value ~default:(0., 0) (Hashtbl.find_opt chain_cost f) in
              Hashtbl.replace chain_cost f (s +. (d /. float_of_int f), c + 1)
            | None -> ())
        execs_b;
      let lint_scaling =
        match List.sort compare (Hashtbl.fold (fun f _ a -> f :: a) chain_cost []) with
        | [] | [ _ ] -> 0.
        | lo :: rest ->
          let hi = List.nth rest (List.length rest - 1) in
          let mean f = let s, c = Hashtbl.find chain_cost f in s /. float_of_int c in
          Stats.ratio (mean hi) (mean lo)
      in
      let cov = Trace.coverage ~root:"request" req_spans in
      let lat_b = Array.fold_left (fun a (e : Run_flow.exec) -> a +. e.Run_flow.latency) 0. execs_b in
      let lat_a = Array.fold_left (fun a (e : Run_flow.exec) -> a +. e.Run_flow.latency) 0. execs in
      let shots = Array.fold_left (fun a (e : Run_flow.exec) -> a + e.Run_flow.prog.Corpus.shots) 0 execs_b in
      let exec_total = self_of "qruntime.execute" in
      let cnt name = float_of_int (List.assoc name counts) in
      notes :=
        Printf.sprintf "trace: coverage min %.4f over %d requests; %d distinct programs decomposed"
          (Array.fold_left Float.min 1. cov) (Array.length cov) distinct
        :: !notes;
      [
        ("llvm_ir.parse_s", per "llvm_ir.parse");
        ("llvm_ir.parse_mb_per_s", v (Stats.ratio (float_of_int bytes /. 1e6) (self_of "llvm_ir.parse")));
        ("llvm_ir.verify_s", per "llvm_ir.verify");
        ("passes.optimize_s", per "passes.optimize");
        ("passes.instrs_in", v (cnt "passes.instrs_in"));
        ("passes.instrs_out", v (cnt "passes.instrs_out"));
        ("qir_analysis.lint_s", per "qir_analysis.lint");
        ("qir_analysis.lint_us_per_func", v (Stats.ratio (self_of "qir_analysis.lint" *. 1e6) (float_of_int funcs)));
        ("qir_analysis.lint_scaling", v lint_scaling);
        ("qir_analysis.findings", v (cnt "qir_analysis.findings"));
        ("qir_analysis.qdf_opt_s", per "qir_analysis.qdf_opt");
        ("qir_analysis.gates_in", v (cnt "qir_analysis.gates_in"));
        ("qir_analysis.gates_out", v (cnt "qir_analysis.gates_out"));
        ( "qir_analysis.promoted_frac",
          v (Stats.ratio (cnt "qir_analysis.promoted") (float_of_int (List.length dynamic))) );
        ("qir_analysis.certify_s", per "qir_analysis.certify");
        ("qruntime.tape_eligible_frac", v (Stats.ratio (float_of_int eligible) (float_of_int distinct)));
        ("qruntime.execute_s", per "qruntime.execute");
        ("qruntime.shots_per_s", v (Stats.ratio (float_of_int shots) exec_total));
        ("qruntime.runs_batched", v (cnt "qruntime.runs_batched"));
        ("qruntime.runs_tape", v (cnt "qruntime.runs_tape"));
        ("qruntime.runs_per_shot", v (cnt "qruntime.runs_per_shot"));
        ( "qruntime.retries",
          v (float_of_int (Array.fold_left (fun a (e : Run_flow.exec) -> a + e.Run_flow.result.Executor.retries) 0 execs_b)) );
        ( "qruntime.batch_fallbacks",
          v
            (float_of_int
               (Array.fold_left
                  (fun a (e : Run_flow.exec) -> if e.Run_flow.result.Executor.batch_fallback then a + 1 else a)
                  0 execs_b)) );
        ("qservice.admit_s", per "qservice.admit");
        ("trace.overhead_frac", v ~samples:(Array.length execs_b) (Stats.ratio (lat_b -. lat_a) lat_a));
        ("trace.coverage", v ~samples:(Array.length cov) (Stats.mean cov));
      ]
      @ Decompose.rows tot ~k ~exec:sweep_exec
  in
  {
    attempted;
    failures;
    wrong = List.rev !wrong;
    nondeterministic = List.rev !nondet;
    e2e;
    layer = (if traced then complete_layers layer else []);
    extra;
    counts;
    notes = List.rev !notes;
    spans;
  }

(* ------------------------------------------------------------------ *)
(* serve-mixed, serve-overload *)

let tenants = [ "hot"; "cold"; "reset"; "feedback" ]

let serve_setup ~hot =
  let t0 = now () in
  let h = Serve_flow.setup ~hot in
  (h, now () -. t0)

let serve_workload ~rate ~(spec : spec) ~seed ~seconds ~traced =
  (* one client (this Domain) plus one executor Domain *)
  Qsim.Dpool.set_domains 1;
  (* The schedule covers all of [seconds] in both modes, so the exact
     counts drawn from it do not depend on the mode. As in run_workload,
     a traced run's two passes take half the time each: they run the
     jobs due in the first half. *)
  let full = Serve_flow.schedule ~seed ~rate ~seconds in
  let seconds = if traced then seconds /. 2. else seconds in
  let jobs =
    if traced then Array.of_list (List.filter (fun j -> j.Serve_flow.due < seconds) (Array.to_list full))
    else full
  in
  let hot = Serve_flow.hot_program () in
  let notes = ref [] in
  (* set-up five times, keeping the last service for the loop *)
  let setups = Array.make 5 0. in
  let handle = ref None in
  for i = 0 to 4 do
    let h, dt = serve_setup ~hot in
    setups.(i) <- dt;
    if i < 4 then (let _, ex, _ = h in ignore (Serve_flow.stop_executor ex)) else handle := Some h
  done;
  let a = Serve_flow.open_loop (Option.get !handle) jobs in
  (* before any check or traced pass adds its own memory *)
  let rss = peak_rss_mb () in
  let b =
    if not traced then None
    else begin
      let h, _ = serve_setup ~hot in
      Trace.enabled := true;
      let b = Serve_flow.open_loop h jobs in
      Trace.enabled := false;
      Some b
    end
  in
  let spans = Trace.all () in
  let modules = Hashtbl.create 64 in
  Array.iter (fun j -> Hashtbl.replace modules j.Serve_flow.prog.Corpus.name ()) full;
  (* ---- checks, outside timing ---- *)
  let checked_a, wrong_a = Serve_flow.check ~seed a in
  let checked_b, wrong_b =
    match b with Some b -> Serve_flow.check ~seed b | None -> (0, [])
  in
  let wrong = wrong_a @ wrong_b in
  notes := Printf.sprintf "checked %d + %d jobs against references" checked_a checked_b :: !notes;
  let bad = Hashtbl.create 8 in
  List.iter (fun (id, _) -> Hashtbl.replace bad (List.hd (String.split_on_char ' ' id)) ()) wrong_a;
  let failures r =
    Array.to_list
      (Array.mapi
         (fun i o ->
           match o with
           | Serve_flow.Error_event msg -> Some (Serve_flow.job_id r.Serve_flow.st.Serve_flow.jobs.(i), msg)
           | Serve_flow.Pending ->
             Some (Serve_flow.job_id r.Serve_flow.st.Serve_flow.jobs.(i), "no terminal event")
           | Serve_flow.Done _ | Serve_flow.Refused _ -> None)
         r.Serve_flow.st.Serve_flow.outcome)
    |> List.filter_map Fun.id
  in
  let failures = failures a @ (match b with Some b -> failures b | None -> []) in
  (* ---- end-to-end metrics, from the untraced loop ---- *)
  (* Rates are per second of the arrival window. Latency percentiles
     cover completed jobs; a refused job misses every latency limit and
     counts against goodput and failed_frac instead. Mixed into the
     percentiles, sub-millisecond refusals put the ranks on the boundary
     between refused and served jobs, where the p90 swung between 0.06
     and 0.19 s from run to run under overload. *)
  let st = a.Serve_flow.st in
  let n = Array.length jobs in
  let lat =
    Array.init n (fun i -> st.Serve_flow.event_at.(i) -. (a.Serve_flow.t_start +. jobs.(i).Serve_flow.due))
  in
  let is_done i = match st.Serve_flow.outcome.(i) with Serve_flow.Done _ -> true | _ -> false in
  let done_idx = List.filter is_done (List.init n Fun.id) in
  let completed = List.length done_idx in
  let good =
    List.length
      (List.filter
         (fun i -> lat.(i) <= spec.latency_limit && not (Hashtbl.mem bad (Serve_flow.job_id jobs.(i))))
         done_idx)
  in
  let done_lat = Array.of_list (List.map (fun i -> lat.(i)) done_idx) in
  let runs =
    Array.of_list
      (List.filter_map
         (fun i -> match st.Serve_flow.outcome.(i) with Serve_flow.Done { run; _ } -> Some run | _ -> None)
         done_idx)
  in
  let hot_lat =
    Array.of_list
      (List.filter_map
         (fun i -> if jobs.(i).Serve_flow.tenant = "hot" then Some lat.(i) else None)
         done_idx)
  in
  let e2e =
    List.filter_map Fun.id
      [
        Some ("setup_s", v ~samples:5 (Stats.median setups));
        Some ("programs_per_s", v ~samples:completed (float_of_int completed /. seconds));
        Some ("goodput_per_s", v ~samples:n (float_of_int good /. seconds));
        pct_or_note notes "compile_p50_s" 0.5 st.Serve_flow.submit_s;
        pct_or_note notes "execute_p50_s" 0.5 runs;
        pct_or_note notes "latency_p50_s" 0.5 done_lat;
        pct_or_note notes "latency_p90_s" 0.9 done_lat;
        Some ("peak_rss_mb", v rss);
      ]
  in
  let s = a.Serve_flow.stats in
  let extra =
    List.filter_map Fun.id
      [
        pct_or_note notes "latency_p99_s" 0.99 done_lat;
        Some ("jobs_per_s", v ~samples:completed (float_of_int completed /. seconds));
        tail notes "hot_latency" hot_lat;
        Some
          ( "failed_frac",
            v ~samples:n
              (float_of_int
                 (s.Qservice.Service.failed + s.Qservice.Service.rejected
                 + List.length wrong_a)
              /. float_of_int (max 1 n)) );
      ]
  in
  (* one row per tenant: outcomes and median latency of completed jobs *)
  List.iter
    (fun tenant ->
      let mine = List.filter (fun i -> jobs.(i).Serve_flow.tenant = tenant) (List.init n Fun.id) in
      let count pred = List.length (List.filter pred mine) in
      let done_lat = Array.of_list (List.filter_map (fun i -> if is_done i then Some lat.(i) else None) mine) in
      notes :=
        Printf.sprintf "tenant %s: %d jobs, %d completed, %d refused, median completed latency %.6f s"
          tenant (List.length mine) (count is_done)
          (count (fun i -> match st.Serve_flow.outcome.(i) with Serve_flow.Refused _ -> true | _ -> false))
          (Stats.median done_lat)
        :: !notes)
    tenants;
  notes :=
    Printf.sprintf "capacity estimate %.0f jobs per executor-busy second; %d jobs, %d completed, %d rejected (%d shed)"
      (Stats.ratio (float_of_int completed) a.Serve_flow.busy)
      n completed s.Qservice.Service.rejected s.Qservice.Service.shed
    :: !notes;
  (* ---- per-layer metrics, from the traced loop ---- *)
  let layer =
    match b with
    | None -> []
    | Some b ->
      let stb = b.Serve_flow.st in
      let k = float_of_int (max 1 n) in
      let sum_span name =
        List.fold_left
          (fun acc (sp : Trace.span) -> if sp.Trace.name = name then acc +. Trace.dur sp else acc)
          0. spans
      in
      let dones =
        List.filter_map
          (fun i ->
            match stb.Serve_flow.outcome.(i) with
            | Serve_flow.Done { result; tier; wait; run } -> Some (i, result, tier, wait, run)
            | _ -> None)
          (List.init n Fun.id)
      in
      let runs_of pred =
        Array.of_list (List.filter_map (fun (_, _, t, _, r) -> if pred t then Some r else None) dones)
      in
      let p50_or_zero xs = Option.value ~default:0. (pct 0.5 xs) in
      let waits = Array.of_list (List.map (fun (_, _, _, w, _) -> w) dones) in
      let sb = b.Serve_flow.stats in
      let c = sb.Qservice.Service.cache in
      let hits = c.Executor.Session.compile_hits + c.Executor.Session.tape_hits + c.Executor.Session.cert_hits in
      let misses = c.Executor.Session.compile_misses + c.Executor.Session.tape_misses + c.Executor.Session.cert_misses in
      (* decomposition: each distinct module once; weighted by the jobs
         that ran it *)
      let per_module = Hashtbl.create 64 in
      List.iter
        (fun (i, (r : Executor.shots_result), tier, _, _) ->
          let j = jobs.(i) in
          let key = j.Serve_flow.prog.Corpus.name in
          let tier = if r.Executor.batched then `Batched else tier in
          let _, runs = Option.value ~default:(j, 0) (Hashtbl.find_opt per_module (key, tier)) in
          Hashtbl.replace per_module (key, tier) (j, runs + 1))
        dones;
      Trace.enabled := true;
      let tot = Decompose.totals () in
      let once_seen = Hashtbl.create 64 in
      let eligible = ref 0 and distinct = ref 0 in
      Hashtbl.iter
        (fun (key, tier) ((j : Serve_flow.job), runs) ->
          let p = j.Serve_flow.prog in
          match Llvm_ir.Parser.parse_module_result p.Corpus.text with
          | Error _ -> ()
          | Ok m ->
            let d = Decompose.run ~text:p.Corpus.text ~tier ~seed:j.Serve_flow.job_seed ~shots:p.Corpus.shots m in
            let once = if Hashtbl.mem once_seen key then 0 else (Hashtbl.replace once_seen key (); incr distinct; if d.Decompose.tape_eligible then incr eligible; 1) in
            Decompose.add tot ~once ~per_run:runs d)
        per_module;
      Trace.enabled := false;
      let run_total = Array.fold_left ( +. ) 0. (runs_of (fun _ -> true)) in
      let shots_done =
        List.fold_left (fun a (_, (r : Executor.shots_result), _, _, _) -> a + r.Executor.completed) 0 dones
      in
      (* per-job coverage: intern + submit + wait + run over the job's
         wall time from its submission *)
      let cov =
        Array.of_list
          (List.filter_map
             (fun (i, _, _, w, r) ->
               let wall = stb.Serve_flow.event_at.(i) -. stb.Serve_flow.submit_start.(i) in
               if wall > 0. then Some (Float.min 1. ((stb.Serve_flow.submit_s.(i) +. w +. r) /. wall)) else None)
             dones)
      in
      let service_time st' =
        Array.fold_left ( +. ) 0. st'.Serve_flow.submit_s
        +. Array.fold_left
             (fun acc o -> match o with Serve_flow.Done { run; _ } -> acc +. run | _ -> acc)
             0. st'.Serve_flow.outcome
      in
      let svc_a = service_time st and svc_b = service_time stb in
      [
        ("llvm_ir.parse_s", v (tot.Decompose.parse /. k));
        ("llvm_ir.verify_s", v (tot.Decompose.verify /. k));
        ("qruntime.tape_eligible_frac", v (Stats.ratio (float_of_int !eligible) (float_of_int !distinct)));
        ("qruntime.execute_s", v ~samples:(List.length dones) (run_total /. k));
        ("qruntime.shots_per_s", v (Stats.ratio (float_of_int shots_done) run_total));
        ("qruntime.retries", v (float_of_int (List.fold_left (fun a (_, (r : Executor.shots_result), _, _, _) -> a + r.Executor.retries) 0 dones)));
        ("qservice.intern_s", v ~samples:n (sum_span "qservice.intern" /. k));
        ("qservice.admit_s", v ~samples:n (sum_span "qservice.admit" /. k));
        ("qservice.wait_p50_s", v ~samples:(Array.length waits) (p50_or_zero waits));
        ("qservice.wait_p99_s", v ~samples:(Array.length waits) (Option.value ~default:0. (pct 0.99 waits)));
        ("qservice.run_p50_s", v (p50_or_zero (runs_of (fun _ -> true))));
        ("qservice.run_batched_p50_s", v (p50_or_zero (runs_of (fun t -> t = `Batched))));
        ("qservice.run_tape_p50_s", v (p50_or_zero (runs_of (fun t -> t = `Tape))));
        ("qservice.run_per_shot_p50_s", v (p50_or_zero (runs_of (fun t -> t = `Per_shot))));
        ("qservice.accepted", v (float_of_int sb.Qservice.Service.accepted));
        ("qservice.rejected", v (float_of_int sb.Qservice.Service.rejected));
        ("qservice.shed", v (float_of_int sb.Qservice.Service.shed));
        ("qservice.throttled", v (float_of_int sb.Qservice.Service.throttled_runs));
        ("qservice.tier_batched", v (float_of_int sb.Qservice.Service.batched_runs));
        ("qservice.tier_tape", v (float_of_int sb.Qservice.Service.tape_runs));
        ("qservice.tier_per_shot", v (float_of_int sb.Qservice.Service.per_shot_runs));
        ("qservice.cache_hit_frac", v (Stats.ratio (float_of_int hits) (float_of_int (hits + misses))));
        ("qservice.executor_busy_frac", v (Stats.ratio b.Serve_flow.busy b.Serve_flow.wall));
        ("qservice.queue_depth_max", v (float_of_int b.Serve_flow.depth_max));
        ("loadgen.lag_p99_s", v ~samples:n (Option.value ~default:0. (pct 0.99 b.Serve_flow.lag)));
        ("loadgen.offered_per_s", v (float_of_int n /. seconds));
        ("trace.overhead_frac", v ~samples:n (Stats.ratio (svc_b -. svc_a) svc_a));
        ("trace.coverage", v ~samples:(Array.length cov) (Stats.mean cov));
      ]
      @ Decompose.rows tot ~k ~exec:run_total
  in
  {
    attempted = n;
    failures;
    wrong;
    nondeterministic = [];
    e2e;
    layer = (if traced then complete_layers layer else []);
    extra;
    counts =
      ("serve.jobs", Array.length full)
      :: ("serve.modules", Hashtbl.length modules)
      :: List.map
           (fun tenant ->
             ( "serve.jobs_" ^ tenant,
               Array.fold_left (fun a j -> if j.Serve_flow.tenant = tenant then a + 1 else a) 0 full ))
           tenants;
    notes = List.rev !notes;
    spans;
  }
