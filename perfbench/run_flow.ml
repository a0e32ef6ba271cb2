(* The run-* workloads: the `qirc --optimize --lint` + `qir-run
   --opt-quantum --mem-budget` path, in process, one program at a time
   (a closed loop with one client). Each program gets a fresh session,
   so it pays its own compile, as a fresh qir-run process does. *)

open Qruntime

let span = Trace.span
let now = Trace.now

(* qir-run --mem-budget 1GiB; every corpus program fits. *)
let mem_budget = 1 lsl 30

(* qir-run's policy at its default flags. *)
let policy =
  {
    Resilience.default with
    Resilience.max_retries = 3;
    total_timeout = None;
    shot_timeout = None;
  }

(* Deterministic facts about one program's trip through the front end.
   The tier is what the executor's own predicates select for it. *)
type counts = {
  instrs_in : int;
  instrs_out : int;
  funcs : int;
  findings : int;
  gates_in : int;
  gates_out : int;
  promoted : bool;
  tier : Executor.tier;
}

type exec = {
  prog : Corpus.program;
  finished : float;  (** clock reading when the histogram was ready *)
  latency : float;  (** text to histogram *)
  compile : float;  (** parse through admission *)
  execute : float;  (** run_shots_resilient *)
  result : Executor.shots_result;
      (** the histogram is kept on a program's first run only, so memory
          does not grow with the number of runs *)
  repeat_ok : bool;  (** the histogram equals the program's first one *)
  calib : float;  (** {!Calib.sample} taken just before the program *)
  calib_wall : float;
      (** wall seconds the calibration took before the program started,
          its untimed warm pass included; rates leave them out *)
  counts : counts;
}

exception Program_failed of string * string

let fail (p : Corpus.program) fmt =
  Printf.ksprintf (fun msg -> raise (Program_failed (p.Corpus.name, msg))) fmt

let tier_of_result (r : Executor.shots_result) : Executor.tier =
  if r.Executor.batched then `Batched else if r.Executor.tape then `Tape
  else `Per_shot

let parse (p : Corpus.program) =
  match Llvm_ir.Parser.parse_module_result ~source_name:p.Corpus.name p.Corpus.text with
  | Ok m -> m
  | Error e -> fail p "parse: %s" e

(* Text to admitted module: every layer call sits in its own span. *)
let front_end (p : Corpus.program) session =
  let m = span "llvm_ir.parse" (fun () -> parse p) in
  (match span "llvm_ir.verify" (fun () -> Llvm_ir.Verifier.check_module m) with
  | [] -> ()
  | v :: _ -> fail p "verify: %s" (Format.asprintf "%a" Llvm_ir.Verifier.pp_violation v));
  let m1 = span "passes.optimize" (fun () -> Passes.Pipeline.optimize m) in
  let ds = span "qir_analysis.lint" (fun () -> Qir_analysis.Lint.run m1) in
  if Qir_analysis.Lint.has_errors ds then fail p "lint reported errors";
  let m2, st = span "qir_analysis.qdf_opt" (fun () -> Qir_analysis.Qdf_opt.optimize m1) in
  let cert, _, _ =
    span "qir_analysis.certify" (fun () -> Executor.Session.cert_of session m2)
  in
  (match
     span "qservice.admit" (fun () ->
         Qservice.Admission.check ~cert ~budget:mem_budget ~backend:`Statevector m2)
   with
  | Ok _ -> ()
  | Error e -> fail p "admission: %s" (Qir_error.to_string e));
  let counts tier =
    {
      instrs_in = Llvm_ir.Ir_module.size m;
      instrs_out = Llvm_ir.Ir_module.size m1;
      funcs = List.length (Llvm_ir.Ir_module.defined_funcs m1);
      findings = List.length ds;
      gates_in = st.Qir_analysis.Qdf_opt.s_gates_before;
      gates_out = st.Qir_analysis.Qdf_opt.s_gates_after;
      promoted = st.Qir_analysis.Qdf_opt.s_promoted > 0;
      tier;
    }
  in
  (m2, counts)

(* [firsts] maps each program to the histogram of its first run. *)
let flow ~firsts ~req (p : Corpus.program) =
  let c0 = now () in
  let calib = Calib.sample () in
  span ~req "request" @@ fun () ->
  let t0 = now () in
  let session = Executor.Session.create () in
  let m2, counts = front_end p session in
  let t1 = now () in
  let r =
    span "qruntime.execute" (fun () ->
        Executor.run_shots_resilient ~session ~policy ~seed:p.Corpus.seed
          ~shots:p.Corpus.shots m2)
  in
  let t2 = now () in
  if r.Executor.degraded || r.Executor.completed <> p.Corpus.shots then
    fail p "incomplete run: %d/%d shots" r.Executor.completed p.Corpus.shots;
  let repeat_ok, result =
    match Hashtbl.find_opt firsts p.Corpus.name with
    | None ->
      Hashtbl.replace firsts p.Corpus.name r.Executor.histogram;
      (true, r)
    | Some h -> (h = r.Executor.histogram, { r with Executor.histogram = [] })
  in
  {
    prog = p;
    finished = t2;
    latency = t2 -. t0;
    compile = t1 -. t0;
    execute = t2 -. t1;
    result;
    repeat_ok;
    calib;
    calib_wall = t0 -. c0;
    counts = counts (tier_of_result r);
  }

(* The module as executed and the exact counts of one program,
   recomputed outside timing. *)
let static_counts (p : Corpus.program) =
  let m2, counts = front_end p (Executor.Session.create ()) in
  let tier : Executor.tier =
    if Executor.batchable m2 then `Batched
    else if Gate_tape.extract m2 <> None then `Tape
    else `Per_shot
  in
  (m2, counts tier)

let attempt ~firsts ~req (p : Corpus.program) =
  match flow ~firsts ~req p with
  | e -> Ok e
  | exception Program_failed (name, msg) -> Error (name, msg)
  | exception e -> Error (p.Corpus.name, Printexc.to_string e)

(* A closed loop over [order] in whole passes, for at least [seconds]
   and [min_count] programs. Whole passes give every program the same
   weight, so a percentile's rank always falls on the same program. *)
let loop ?seconds ~firsts ~min_count order =
  let n = Array.length order in
  let deadline = now () +. Option.value ~default:0. seconds in
  let out = ref [] in
  let i = ref 0 in
  while now () < deadline || !i < min_count || !i mod n <> 0 do
    out := attempt ~firsts ~req:!i order.(!i mod n) :: !out;
    incr i
  done;
  let all = List.rev !out in
  ( Array.of_list (List.filter_map Result.to_option all),
    List.filter_map (function Error e -> Some e | Ok _ -> None) all )
