(* The executor's internals, replayed through their public functions
   once per distinct module and outside any request span, so request
   spans stay a faithful copy of the untraced flow. Each call is timed
   and, in a traced run, also recorded as a span. *)

open Qruntime

let timed name f =
  let t0 = Trace.now () in
  let v = Trace.span name f in
  (v, Trace.now () -. t0)

type qsim = {
  plan_s : float;
  class_s : (string * float) list;  (** per step class *)
  sample_s : float;
  steps : int;
  gates : int;
  sweep_bytes : float;
}

type t = {
  parse_s : float;
  verify_s : float;
  compile_s : float;
  probe_s : float;
  extract_s : float;
  tape_eligible : bool;
  replay_s : float;  (** all shots, when the module ran on the tape tier *)
  qsim : qsim option;  (** when the module ran batched *)
}

let step_class (step : Qsim.Fusion.step) =
  match step with
  | Qsim.Fusion.Mat1 _ -> "mat1"
  | Qsim.Fusion.Mat2 _ -> "mat2"
  | Qsim.Fusion.Cluster (u, _) -> Classify.name (Classify.of_matrix u)
  | Qsim.Fusion.Op _ -> "other"

let gate_count (c : Qcircuit.Circuit.t) =
  List.length
    (List.filter
       (fun (op : Qcircuit.Circuit.op) ->
         match op.Qcircuit.Circuit.kind with
         | Qcircuit.Circuit.Gate _ -> true
         | _ -> false)
       c.Qcircuit.Circuit.ops)

(* The exact step and gate counts of a batched module's fused plan. *)
let plan_counts m =
  match Qir.Qir_parser.parse_with_output m with
  | Error _ -> (0, 0)
  | Ok (c, _) ->
    let prefix = Qsim.Sampler.strip_measurements c in
    (List.length (fst (Qsim.Fusion.plan prefix)), gate_count prefix)

(* parse_with_output -> Fusion.plan, then one kernel call per step. *)
let replay_qsim ~seed ~shots m =
  match Qir.Qir_parser.parse_with_output m with
  | Error _ -> None
  | Ok (c, _) ->
    let prefix = Qsim.Sampler.strip_measurements c in
    let (steps, _), plan_s = timed "qsim.plan" (fun () -> Qsim.Fusion.plan prefix) in
    let st = Qsim.Statevector.create ~seed c.Qcircuit.Circuit.num_qubits in
    let clbits = Array.make (max 1 c.Qcircuit.Circuit.num_clbits) false in
    let acc = Hashtbl.create 8 in
    List.iter
      (fun step ->
        let cls = step_class step in
        let (), dt =
          timed ("qsim." ^ cls) (fun () ->
              match step with
              | Qsim.Fusion.Mat1 (u, q) -> Qsim.Statevector.apply_1q st u q
              | Qsim.Fusion.Mat2 (u, a, b) -> Qsim.Statevector.apply_2q st u a b
              | Qsim.Fusion.Cluster (u, qs) -> Qsim.Statevector.apply_cluster st u qs
              | Qsim.Fusion.Op _ -> Qsim.Fusion.apply_plan st clbits [ step ])
        in
        Hashtbl.replace acc cls (dt +. Option.value ~default:0. (Hashtbl.find_opt acc cls)))
      steps;
    (* Sampling has no public entry of its own: it is the sampler's
       whole run minus a fused simulation of the same prefix. *)
    let _, sim_s = timed "qsim.simulate" (fun () -> Qsim.Fusion.run_circuit ~seed prefix) in
    let _, all_s = timed "qsim.sampler" (fun () -> Qsim.Sampler.sample ~seed ~shots c) in
    let n = List.length steps in
    Some
      {
        plan_s;
        class_s = Hashtbl.fold (fun k v a -> (k, v) :: a) acc [];
        sample_s = Float.max 0. (all_s -. sim_s);
        steps = n;
        gates = gate_count prefix;
        sweep_bytes = 16. *. float_of_int (Qsim.Statevector.dim st) *. float_of_int n;
      }

(* [m] is the module as executed; [text] its source. *)
let run ~text ~(tier : Executor.tier) ~seed ~shots m =
  Trace.span "decompose" @@ fun () ->
  let parsed, parse_s =
    timed "llvm_ir.parse" (fun () ->
        Llvm_ir.Parser.parse_module_result ~source_name:"<decompose>" text)
  in
  let verify_s =
    match parsed with
    | Ok pm -> snd (timed "llvm_ir.verify" (fun () -> Llvm_ir.Verifier.check_module pm))
    | Error _ -> 0.
  in
  let _, compile_s =
    timed "llvm_ir.bytecode_compile" (fun () ->
        Executor.Session.compiled (Executor.Session.create ()) m)
  in
  let _, probe_s = timed "qruntime.tier_probe" (fun () -> Executor.batchable m) in
  let tape, extract_s = timed "qruntime.tape_extract" (fun () -> Gate_tape.extract m) in
  let replay_s =
    match (tier, tape) with
    | `Tape, Some tape ->
      snd
        (timed "qruntime.tape_replay" (fun () ->
             for shot = 0 to shots - 1 do
               let inst =
                 Qsim.Backend.create_instance ~seed:(seed + (shot * 7919))
                   `Statevector (Executor.declared_qubits m)
               in
               ignore (Gate_tape.replay tape inst)
             done))
    | _ -> 0.
  in
  let qsim = match tier with `Batched -> replay_qsim ~seed ~shots m | _ -> None in
  {
    parse_s;
    verify_s;
    compile_s;
    probe_s;
    extract_s;
    tape_eligible = tape <> None;
    replay_s;
    qsim;
  }

(* Sums over decompositions, each weighted by how many requests it
   stands for; the caller divides by the request count. *)
type totals = {
  mutable parse : float;
  mutable verify : float;
  mutable compile : float;
  mutable probe : float;
  mutable extract : float;
  mutable replay : float;
  mutable plan : float;
  classes : (string, float) Hashtbl.t;
  mutable sample : float;
  mutable steps : int;
  mutable gates : int;
  mutable bytes : float;
  mutable sweep : float;
}

let totals () =
  {
    parse = 0.;
    verify = 0.;
    compile = 0.;
    probe = 0.;
    extract = 0.;
    replay = 0.;
    plan = 0.;
    classes = Hashtbl.create 8;
    sample = 0.;
    steps = 0;
    gates = 0;
    bytes = 0.;
    sweep = 0.;
  }

(* [once] weights the costs a module pays once (parse, compile,
   extraction); [per_run] weights the costs it pays on every run. *)
let add tot ~once ~per_run d =
  let o = float_of_int once and r = float_of_int per_run in
  tot.parse <- tot.parse +. (o *. d.parse_s);
  tot.verify <- tot.verify +. (o *. d.verify_s);
  tot.compile <- tot.compile +. (o *. d.compile_s);
  tot.extract <- tot.extract +. (o *. d.extract_s);
  tot.probe <- tot.probe +. (r *. d.probe_s);
  tot.replay <- tot.replay +. (r *. d.replay_s);
  Option.iter
    (fun q ->
      tot.plan <- tot.plan +. (r *. q.plan_s);
      tot.sample <- tot.sample +. (r *. q.sample_s);
      List.iter
        (fun (k, v) ->
          tot.sweep <- tot.sweep +. (r *. v);
          Hashtbl.replace tot.classes k
            ((r *. v) +. Option.value ~default:0. (Hashtbl.find_opt tot.classes k)))
        q.class_s;
      tot.steps <- tot.steps + q.steps;
      tot.gates <- tot.gates + q.gates;
      tot.bytes <- tot.bytes +. (r *. q.sweep_bytes))
    d.qsim

let class_total tot k = Option.value ~default:0. (Hashtbl.find_opt tot.classes k)

(* The per-layer rows both kinds of workload take from the totals: [k]
   requests, [exec] the execute seconds of the batched ones (the
   denominator of the sweep share). *)
let rows tot ~k ~exec =
  let v = Metrics.v in
  let per x = v (x /. k) in
  [
    ("llvm_ir.bytecode_compile_s", per tot.compile);
    ("qruntime.tier_probe_s", per tot.probe);
    ("qruntime.tape_extract_s", per tot.extract);
    ("qruntime.tape_replay_s", per tot.replay);
    ("qsim.plan_s", per tot.plan);
    ("qsim.steps", v (float_of_int tot.steps));
    ("qsim.gates_per_step", v (Stats.ratio (float_of_int tot.gates) (float_of_int tot.steps)));
  ]
  @ List.map
      (fun cls -> ("qsim." ^ cls ^ "_s", per (class_total tot cls)))
      [ "mat1"; "mat2"; "diagonal"; "monomial"; "sparse"; "dense" ]
  @ [
      ("qsim.sample_s", per tot.sample);
      ("qsim.sweep_gb_per_s", v (Stats.ratio (tot.bytes /. 1e9) tot.sweep));
      ("qsim.sweep_share", v (Stats.ratio tot.sweep exec));
    ]
