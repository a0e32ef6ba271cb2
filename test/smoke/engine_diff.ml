(* Engine differential smoke: the AST interpreter and the bytecode
   engine must be observably identical. 200 fuzzed modules (random
   circuits, both addressing modes, feedback workloads, optimized and
   not) execute per shot under both engines with identical seeds —
   histograms and interpreter statistics must match bit for bit. A
   faulty-backend subset checks the retry machinery sees the same world
   from both engines; a counting-deadline case checks mid-shot timeout
   fires at the identical instruction; the checked-in examples (and
   recursive_bad under a fuel ceiling) close the loop on real files.

   Used by CI as the engine-parity gate:
     dune exec test/smoke/engine_diff.exe *)

open Qcircuit

let circuits = 200
let shots = 4
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "engine-diff: %s\n" msg)
    fmt

let hist_to_string h =
  String.concat ";" (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) h)

let stats_to_string (s : Llvm_ir.Interp.stats) =
  Printf.sprintf "instr=%d ext=%d int=%d blocks=%d"
    s.Llvm_ir.Interp.instructions s.Llvm_ir.Interp.external_calls
    s.Llvm_ir.Interp.internal_calls s.Llvm_ir.Interp.blocks_entered

let with_measurements (c : Circuit.t) =
  let b =
    Circuit.Build.create ~num_qubits:c.Circuit.num_qubits
      ~num_clbits:c.Circuit.num_qubits ()
  in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with
      | Circuit.Gate (g, qs) -> Circuit.Build.gate b g qs
      | _ -> ())
    c.Circuit.ops;
  for q = 0 to c.Circuit.num_qubits - 1 do
    Circuit.Build.measure b q q
  done;
  Circuit.Build.finish b

let module_of_circuit ~i c =
  let addressing = if i mod 2 = 0 then `Static else `Dynamic in
  let text = Qir.Qir_builder.to_string ~addressing c in
  let m = Llvm_ir.Parser.parse_module text in
  if i mod 3 = 0 then Passes.Pipeline.optimize m else m

let run_engine ~policy ~seed ~backend ~engine m =
  Qruntime.Executor.run_shots_resilient ~policy ~seed ~backend ~batch:false
    ~engine ~shots m

(* -------------------------------------------------------------------- *)
(* 1. fuzzed corpus, both engines, identical seeds                       *)

let fuzzed_corpus () =
  let policy = { Qruntime.Resilience.no_retry with sleep = false } in
  for i = 0 to circuits - 1 do
    let seed = 2000 + i in
    let n = 2 + (i mod 5) in
    let c =
      if i mod 7 = 0 then Generate.feedback_rounds ~rounds:(1 + (i mod 3)) n
      else
        with_measurements
          (Generate.random ~seed ~parametric:(i mod 2 = 0)
             ~gates:(8 + (i mod 4 * 8))
             n)
    in
    try
      let m = module_of_circuit ~i c in
      let a = run_engine ~policy ~seed ~backend:`Statevector ~engine:`Ast m in
      let b =
        run_engine ~policy ~seed ~backend:`Statevector ~engine:`Bytecode m
      in
      if a.Qruntime.Executor.histogram <> b.Qruntime.Executor.histogram then
        fail "circuit %d (seed %d): histogram %s <> %s" i seed
          (hist_to_string a.Qruntime.Executor.histogram)
          (hist_to_string b.Qruntime.Executor.histogram);
      (* single-shot stats must agree instruction for instruction *)
      let ra =
        Qruntime.Executor.run ~seed ~backend:`Statevector ~engine:`Ast m
      in
      let rb =
        Qruntime.Executor.run ~seed ~backend:`Statevector ~engine:`Bytecode m
      in
      if ra.Qruntime.Executor.output <> rb.Qruntime.Executor.output then
        fail "circuit %d (seed %d): output %S <> %S" i seed
          ra.Qruntime.Executor.output rb.Qruntime.Executor.output;
      if ra.Qruntime.Executor.results <> rb.Qruntime.Executor.results then
        fail "circuit %d (seed %d): results differ" i seed;
      if
        stats_to_string ra.Qruntime.Executor.interp_stats
        <> stats_to_string rb.Qruntime.Executor.interp_stats
      then
        fail "circuit %d (seed %d): stats %s <> %s" i seed
          (stats_to_string ra.Qruntime.Executor.interp_stats)
          (stats_to_string rb.Qruntime.Executor.interp_stats)
    with e ->
      fail "circuit %d (seed %d): raised %s" i seed (Printexc.to_string e)
  done

(* -------------------------------------------------------------------- *)
(* 2. faulty backends: retries and recovered histograms must line up     *)

let faulty_subset () =
  let spec =
    match Qsim.Faulty.spec_of_string "0.02" with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let policy =
    {
      Qruntime.Resilience.default with
      Qruntime.Resilience.max_retries = 20;
      sleep = false;
    }
  in
  for i = 0 to 29 do
    let seed = 4000 + i in
    let c =
      with_measurements
        (Generate.random ~seed ~gates:(10 + (i mod 3 * 10)) (2 + (i mod 4)))
    in
    try
      let m = module_of_circuit ~i c in
      let backend = `Faulty { spec with Qsim.Faulty.fault_seed = seed } in
      let a = run_engine ~policy ~seed ~backend ~engine:`Ast m in
      let b = run_engine ~policy ~seed ~backend ~engine:`Bytecode m in
      if a.Qruntime.Executor.histogram <> b.Qruntime.Executor.histogram then
        fail "faulty %d (seed %d): histogram %s <> %s" i seed
          (hist_to_string a.Qruntime.Executor.histogram)
          (hist_to_string b.Qruntime.Executor.histogram);
      if a.Qruntime.Executor.retries <> b.Qruntime.Executor.retries then
        fail "faulty %d (seed %d): retries %d <> %d" i seed
          a.Qruntime.Executor.retries b.Qruntime.Executor.retries;
      if a.Qruntime.Executor.completed <> b.Qruntime.Executor.completed then
        fail "faulty %d (seed %d): completed %d <> %d" i seed
          a.Qruntime.Executor.completed b.Qruntime.Executor.completed
    with e ->
      fail "faulty %d (seed %d): raised %s" i seed (Printexc.to_string e)
  done

(* -------------------------------------------------------------------- *)
(* 3. deadline expiry mid-shot: a deterministic counting deadline must   *)
(*    fire at the identical instruction and produce the identical        *)
(*    Timeout_error from both engines                                    *)

let deadline_parity () =
  (* big enough that the every-128-instructions poll fires > 3 times *)
  let c = with_measurements (Generate.random ~seed:77 ~gates:700 4) in
  let text = Qir.Qir_builder.to_string c in
  let m = Llvm_ir.Parser.parse_module text in
  let timeout_of create run_fn =
    (* trip after 3 polls (the deadline is polled every 128 instrs) *)
    let polls = ref 0 in
    let deadline () =
      incr polls;
      !polls > 3
    in
    let inst = Qsim.Backend.create_instance ~seed:77 `Statevector 4 in
    let rt = Qruntime.Runtime.create inst in
    let st = create ~deadline ~externals:(Qruntime.Runtime.externals rt) in
    match run_fn st with
    | _ -> None
    | exception Llvm_ir.Ir_error.Timeout_error msg -> Some msg
  in
  let a =
    timeout_of
      (fun ~deadline ~externals ->
        Llvm_ir.Interp.create ~deadline ~externals m)
      (fun st -> Llvm_ir.Interp.run_function st "main" [])
  in
  let b =
    let prog, _, _ = Qruntime.Executor.compiled m in
    timeout_of
      (fun ~deadline ~externals ->
        Llvm_ir.Bc_exec.create ~deadline ~externals prog)
      (fun st -> Llvm_ir.Bc_exec.run_function st "main" [])
  in
  match (a, b) with
  | Some ma, Some mb when ma = mb -> ()
  | Some ma, Some mb -> fail "deadline: %S <> %S" ma mb
  | None, _ | _, None ->
    fail "deadline: expected Timeout_error from both engines (ast=%b bc=%b)"
      (a <> None) (b <> None)

(* -------------------------------------------------------------------- *)
(* 4. checked-in examples, plus recursive_bad under a fuel ceiling       *)

let examples () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "examples" in
  let run_file name f =
    let path = Filename.concat dir name in
    if Sys.file_exists path then f path
    else Printf.eprintf "engine-diff: skipping missing %s\n" path
  in
  List.iter
    (fun name ->
      run_file name (fun path ->
          let ic = open_in path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let m = Llvm_ir.Parser.parse_module text in
          let policy = { Qruntime.Resilience.no_retry with sleep = false } in
          let a =
            run_engine ~policy ~seed:11 ~backend:`Statevector ~engine:`Ast m
          in
          let b =
            run_engine ~policy ~seed:11 ~backend:`Statevector
              ~engine:`Bytecode m
          in
          if a.Qruntime.Executor.histogram <> b.Qruntime.Executor.histogram
          then
            fail "%s: histogram %s <> %s" name
              (hist_to_string a.Qruntime.Executor.histogram)
              (hist_to_string b.Qruntime.Executor.histogram)))
    [
      "bell_static.ll"; "bell_dynamic.ll"; "phi_addr.ll";
      "teleport_helpers.ll";
    ];
  (* recursive_bad: the fuel ceiling must trip with the identical error *)
  run_file "recursive_bad.ll" (fun path ->
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let m = Llvm_ir.Parser.parse_module text in
      let msg_of engine =
        match
          Qruntime.Executor.run ~seed:5 ~fuel:10 ~engine m
        with
        | _ -> None
        | exception Llvm_ir.Ir_error.Exec_error msg -> Some msg
      in
      match (msg_of `Ast, msg_of `Bytecode) with
      | Some ma, Some mb when ma = mb -> ()
      | Some ma, Some mb -> fail "recursive_bad fuel: %S <> %S" ma mb
      | a, b ->
        fail "recursive_bad fuel: expected Exec_error from both (ast=%b \
              bc=%b)"
          (a <> None) (b <> None))

let () =
  fuzzed_corpus ();
  faulty_subset ();
  deadline_parity ();
  examples ();
  Printf.printf
    "engine diff: %d fuzzed modules x %d shots + 30 faulty + deadline + \
     examples, %d divergences\n"
    circuits shots !failures;
  if !failures > 0 then exit 1
