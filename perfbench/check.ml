(* Independent output checks. Batched (sampled) histograms are tested
   against exact probabilities from the naive reference kernels applied
   to the source circuit; replayed (tape and per-shot) histograms must
   be bit-identical to the AST interpreter, per shot, on the
   unoptimized module parsed afresh from the program text. *)

open Qcircuit

(* Exact distribution over the terminal measurements of [c]: entry [o]
   has bit [j] = the outcome measured into clbit [j]. *)
let exact_distribution (c : Circuit.t) =
  let st, _ =
    Qsim.Statevector.Reference.run_circuit (Qsim.Sampler.strip_measurements c)
  in
  let meas =
    List.filter_map
      (fun (op : Circuit.op) ->
        match op.Circuit.kind with
        | Circuit.Measure (q, cl) -> Some (q, cl)
        | _ -> None)
      c.Circuit.ops
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let qubits = Array.of_list (List.map fst meas) in
  let m = Array.length qubits in
  let probs = Array.make (1 lsl m) 0. in
  Array.iteri
    (fun i p ->
      if p > 0. then begin
        let o = ref 0 in
        for j = 0 to m - 1 do
          if i land (1 lsl qubits.(j)) <> 0 then o := !o lor (1 lsl j)
        done;
        probs.(!o) <- probs.(!o) +. p
      end)
    (Qsim.Statevector.probabilities st);
  probs

let index_of_key key =
  let o = ref 0 in
  String.iteri (fun j ch -> if ch = '1' then o := !o lor (1 lsl j)) key;
  !o

(* Every sampled outcome must have nonzero exact probability, and the
   mean exact probability of the samples must lie within five standard
   errors of its expectation, sum p^2. *)
let sampled ~probs hist =
  let bits =
    let rec lg k = if 1 lsl k >= Array.length probs then k else lg (k + 1) in
    lg 0
  in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 hist in
  let bad =
    List.find_opt
      (fun (key, _) ->
        String.length key <> bits || probs.(index_of_key key) <= 1e-12)
      hist
  in
  match bad with
  | Some (key, _) -> Error (Printf.sprintf "outcome %S has zero probability" key)
  | None when total = 0 -> Error "empty histogram"
  | None ->
    let n = float_of_int total in
    let mean =
      List.fold_left
        (fun a (key, c) -> a +. (float_of_int c *. probs.(index_of_key key)))
        0. hist
      /. n
    in
    let s2 = Array.fold_left (fun a p -> a +. (p *. p)) 0. probs in
    let s3 = Array.fold_left (fun a p -> a +. (p *. p *. p)) 0. probs in
    let se = Float.sqrt (Float.max 0. (s3 -. (s2 *. s2)) /. n) in
    if Float.abs (mean -. s2) <= (5. *. se) +. 1e-9 then Ok ()
    else
      Error
        (Printf.sprintf "mean sample probability %.6g vs expected %.6g (se %.3g)"
           mean s2 se)

let parse_fresh text =
  match Llvm_ir.Parser.parse_module_result ~source_name:"<reference>" text with
  | Ok m -> m
  | Error e -> failwith e

(* The tier contract: tape and per-shot histograms equal per-shot AST
   interpretation of the unoptimized module at the same seed. *)
let replayed ~text ~seed ~shots hist =
  let expect =
    Qruntime.Executor.run_shots ~engine:`Ast ~batch:false ~seed ~shots
      (parse_fresh text)
  in
  if expect = hist then Ok ()
  else Error "histogram differs from per-shot AST interpretation"
