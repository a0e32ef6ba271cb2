(* Batched shot sampling: when a circuit is a unitary prefix followed by
   terminal measurements — no mid-circuit measurement feeding later
   operations, no reset, no classical conditional — re-simulating the
   whole circuit per shot is pure waste. Run the (fused) unitary once,
   marginalize the final probability distribution onto the measured
   qubits, and draw all shots from the cumulative distribution.

   The histogram keys are bitstrings over the measured classical bits in
   clbit order, matching both {!Statevector.run_circuit}'s clbit array
   and the QIR builder's result-recording order, so batched histograms
   are directly comparable with per-shot ones. *)

open Qcircuit

(* [batchable c] iff all shots can be drawn from one final distribution:
   - no classically-conditioned operation and no reset;
   - measured qubits are pairwise distinct (re-measurement would
     correlate, not resample) and measured clbits are pairwise distinct
     and dense (0..m-1), so a bitstring over them is well-defined;
   - once a qubit is measured, no later gate or measurement touches it
     (gates on other qubits commute with the measurement, so they may
     still run "after" it). *)
let batchable (c : Circuit.t) =
  let measured = Array.make (max c.Circuit.num_qubits 1) false in
  let clbits = Hashtbl.create 8 in
  let max_clbit = ref (-1) in
  let ok = ref true in
  List.iter
    (fun (op : Circuit.op) ->
      if op.Circuit.cond <> None then ok := false
      else
        match op.Circuit.kind with
        | Circuit.Reset _ -> ok := false
        | Circuit.Barrier _ -> ()
        | Circuit.Gate (_, qs) ->
          if List.exists (fun q -> measured.(q)) qs then ok := false
        | Circuit.Measure (q, cl) ->
          if measured.(q) || cl < 0 || Hashtbl.mem clbits cl then ok := false
          else begin
            measured.(q) <- true;
            Hashtbl.add clbits cl ();
            if cl > !max_clbit then max_clbit := cl
          end)
    c.Circuit.ops;
  !ok && !max_clbit = Hashtbl.length clbits - 1

(* The measured (qubit, clbit) pairs, sorted by clbit — key bit j of
   the histogram is the qubit measured into clbit j. *)
let measurements (c : Circuit.t) =
  List.filter_map
    (fun (op : Circuit.op) ->
      match op.Circuit.kind with
      | Circuit.Measure (q, cl) -> Some (q, cl)
      | _ -> None)
    c.Circuit.ops
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let key_of_outcome ~bits outcome =
  String.init bits (fun j ->
      if outcome land (1 lsl j) <> 0 then '1' else '0')

let strip_measurements (c : Circuit.t) =
  {
    c with
    Circuit.ops =
      List.filter
        (fun (op : Circuit.op) ->
          match op.Circuit.kind with
          | Circuit.Measure _ -> false
          | _ -> true)
        c.Circuit.ops;
  }

(* [sample ~shots c] — requires [batchable c]. *)
let sample ?(seed = 1) ?(fuse = true) ~shots (c : Circuit.t) =
  if not (batchable c) then
    Sim_error.error ~op:"Sampler.sample" "circuit is not batchable";
  if shots < 0 then
    Sim_error.error ~op:"Sampler.sample" "negative shot count %d" shots;
  let st, _ =
    if fuse then Fusion.run_circuit ~seed (strip_measurements c)
    else Statevector.run_circuit ~seed (strip_measurements c)
  in
  let qubits = Array.of_list (List.map fst (measurements c)) in
  let m = Array.length qubits in
  (* outcome bit j = state of qubits.(j); the final entry is forced to 1
     so a draw of ~1.0 cannot fall off the end under accumulated
     rounding *)
  let cumulative = Statevector.cumulative_marginal st qubits in
  let outcomes = Array.length cumulative in
  cumulative.(outcomes - 1) <- 1.0;
  let rng = Rng.create seed in
  let counts = Hashtbl.create 64 in
  for _ = 1 to shots do
    let u = Rng.float rng in
    (* first outcome with cumulative >= u (binary search) *)
    let lo = ref 0 and hi = ref (outcomes - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cumulative.(mid) < u then lo := mid + 1 else hi := mid
    done;
    Hashtbl.replace counts !lo
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts !lo))
  done;
  Hashtbl.fold
    (fun o n acc -> (key_of_outcome ~bits:m o, n) :: acc)
    counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
