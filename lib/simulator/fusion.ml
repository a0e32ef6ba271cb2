(* Gate fusion: a pre-execution pass that collapses runs of adjacent
   gates into fewer, denser kernels before the statevector engine runs
   them — the QDFO/dataflow lever: the cost of a kernel is a sweep over
   2^n amplitudes, so applying one fused matrix instead of five separate
   gates is a ~5x win on the hot path.

   The pass is a cost-aware clustering walk: every gate either joins a
   pending cluster (a unitary over the union of their qubits, capped at
   [k] qubits), or flushes the clusters it touches and starts a new one.
   A merge fires only when the engine-cost model says the merged kernel
   is no more expensive than the kernels it replaces. The model mirrors
   the engine's classified sweep: diagonal cluster matrices cost a
   fraction of a sweep, monomial (permutation-with-phases) matrices —
   any run of X/CX/SWAP/CCX/phase gates — cost one sweep regardless of
   cluster width, and sparse matrices pay per nonzero per row.
   So Clifford+T runs collapse into wide one-sweep clusters, an H still
   fuses into a neighboring CNOT (the dense 4x4 beats two sweeps), but
   a dense matrix is never grown past what the replaced gates cost.

   Emission keeps the cheapest encoding for each flushed cluster: a
   cluster that is still a single source gate is re-emitted as that gate
   (keeping the engine's per-gate dispatch and precomputed
   classifications), 1- and 2-qubit matrices lower to Mat1/Mat2,
   anything wider to Cluster.

   Measurements, resets, barriers and classically-conditioned
   operations are fusion barriers for the qubits they touch (a
   conditional gate's applicability is only known at run time). The
   emitted plan preserves operation order per qubit; pending matrices on
   disjoint qubits commute, so flush order between qubits is free. *)

open Qcircuit

type step =
  | Mat1 of Complex.t array array * int
  | Mat2 of Complex.t array array * int * int
      (* first qubit = most significant matrix bit, as in apply_2q *)
  | Cluster of Complex.t array array * int array
      (* qubits ascending; matrix bit j <-> qs.(j), least significant
         first, as in Statevector.apply_cluster *)
  | Op of Circuit.op

type stats = {
  ops_in : int;
  steps_out : int;
  fused_1q : int; (* 1q gates merged into a 1-qubit cluster *)
  absorbed_1q : int; (* 1q gates folded into a wider cluster *)
  fused_2q : int; (* 2q gates merged into a cluster *)
  fused_3q : int; (* 3q gates merged into a cluster *)
  clusters_emitted : int; (* Cluster steps (3+ qubits) in the plan *)
  clustered_gates : int; (* source gates inside those Cluster steps *)
  identities_dropped : int;
}

(* ------------------------------------------------------------------ *)
(* Small complex matrix algebra                                         *)

(* Product [a x b], skipping exact zeros of both factors: gate and
   fused-cluster matrices are mostly zeros, so this runs near
   O(nnz(a) * row-density(b)) instead of O(n^3) — the difference
   between a negligible and a dominant planning cost at 32x32+. *)
let mat_mul a b =
  let n = Array.length a in
  (* Accumulate each row in unboxed float arrays and box once per
     entry: [Complex.add]/[Complex.mul] in the inner loop allocate two
     boxed values per nonzero product, and at 64x64 the planner runs
     enough products that the allocation churn dominates planning
     time. The additions happen in the same k-ascending order as the
     boxed walk, so the resulting matrices are bit-identical. *)
  let rr = Array.make n 0.0 and ri = Array.make n 0.0 in
  Array.init n (fun i ->
      Array.fill rr 0 n 0.0;
      Array.fill ri 0 n 0.0;
      for k = 0 to n - 1 do
        let aik = a.(i).(k) in
        let ar = aik.Complex.re and ai = aik.Complex.im in
        if ar <> 0.0 || ai <> 0.0 then
          for j = 0 to n - 1 do
            let bkj = Array.unsafe_get (Array.unsafe_get b k) j in
            let br = bkj.Complex.re and bi = bkj.Complex.im in
            if br <> 0.0 || bi <> 0.0 then begin
              Array.unsafe_set rr j
                (Array.unsafe_get rr j +. ((ar *. br) -. (ai *. bi)));
              Array.unsafe_set ri j
                (Array.unsafe_get ri j +. ((ar *. bi) +. (ai *. br)))
            end
          done
      done;
      Array.init n (fun j -> { Complex.re = rr.(j); im = ri.(j) }))

(* Reindexes a 4x4 matrix to the basis with its two qubit roles
   swapped: bit pattern |ab> becomes |ba> (1 <-> 2). *)
let swap_roles (u : Complex.t array array) =
  let perm = [| 0; 2; 1; 3 |] in
  Array.init 4 (fun i -> Array.init 4 (fun j -> u.(perm.(i)).(perm.(j))))

let is_identity (u : Complex.t array array) =
  let n = Array.length u in
  (* max-deviation < t iff no entry deviates by >= t, so bail on the
     first offender: almost every matrix the planner probes is not an
     identity, and the planner probes one per flush. *)
  try
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let expect = if i = j then Complex.one else Complex.zero in
        if Complex.norm (Complex.sub u.(i).(j) expect) >= 1e-14 then
          raise Exit
      done
    done;
    true
  with Exit -> false

(* Structure tests (exact zeros: gate matrices carry them, and products
   of structured matrices preserve them). The engine has cheap kernels
   for diagonal and permutation-shaped matrices, so the cost model must
   know a cluster's structure, not just its width. *)
let zero (z : Complex.t) = z.Complex.re = 0.0 && z.Complex.im = 0.0

let is_diag (u : Complex.t array array) =
  let n = Array.length u in
  try
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && not (zero u.(i).(j)) then raise Exit
      done
    done;
    true
  with Exit -> false

(* One nonzero per row and per column: a permutation with phases.
   These matrices (any product of X, CX, SWAP, CCX and phase gates)
   take the engine's constant-work-per-amplitude cluster path. *)
let is_monomial (u : Complex.t array array) =
  let n = Array.length u in
  (* Bail as soon as a row or column count leaves 1: the expensive
     rejections (2-sparse cluster candidates) fail on the first row. *)
  try
    for i = 0 to n - 1 do
      let row = ref 0 and col = ref 0 in
      for j = 0 to n - 1 do
        if not (zero u.(i).(j)) then incr row;
        if not (zero u.(j).(i)) then incr col
      done;
      if !row <> 1 || !col <> 1 then raise Exit
    done;
    true
  with Exit -> false

(* Lifts [u] over qubits [qs] (matrix bit j <-> qs.(j)) to the superset
   [sup] (ascending), acting as identity on the extra qubits.
   O(4^|sup|) — cluster widths are small. *)
let embed (u : Complex.t array array) (qs : int array) (sup : int array) =
  let pos =
    Array.map
      (fun q ->
        let p = ref (-1) in
        Array.iteri (fun i s -> if s = q then p := i) sup;
        assert (!p >= 0);
        !p)
      qs
  in
  let big = 1 lsl Array.length sup in
  let inmask = Array.fold_left (fun acc p -> acc lor (1 lsl p)) 0 pos in
  let outmask = (big - 1) land lnot inmask in
  let proj x =
    let s = ref 0 in
    Array.iteri (fun j p -> s := !s lor (((x lsr p) land 1) lsl j)) pos;
    !s
  in
  (* [proj] is pure in [x]: tabulating it once turns the 4^|sup| fill
     into table lookups instead of recomputing the bit scatter for
     every (row, column) pair. *)
  let projtab = Array.init big proj in
  Array.init big (fun r ->
      let ur = u.(Array.unsafe_get projtab r) in
      let rmask = r land outmask in
      Array.init big (fun c ->
          if rmask <> c land outmask then Complex.zero
          else ur.(Array.unsafe_get projtab c)))

(* The 8x8 permutation matrix of a 3-qubit gate in the local basis of
   [sorted] (ascending, LSB first), given its operand order [ops]. *)
let mat3_local (g : Gate.t) (ops : int array) (sorted : int array) =
  let pos =
    Array.map
      (fun q ->
        let p = ref (-1) in
        Array.iteri (fun i s -> if s = q then p := i) sorted;
        !p)
      ops
  in
  let u = Array.make_matrix 8 8 Complex.zero in
  for x = 0 to 7 do
    let bit j = (x lsr pos.(j)) land 1 in
    let y =
      match g with
      | Gate.Ccx -> if bit 0 = 1 && bit 1 = 1 then x lxor (1 lsl pos.(2)) else x
      | Gate.Cswap ->
        if bit 0 = 1 && bit 1 <> bit 2 then
          x lxor (1 lsl pos.(1)) lxor (1 lsl pos.(2))
        else x
      | _ -> assert false
    in
    u.(y).(x) <- Complex.one
  done;
  u

(* ------------------------------------------------------------------ *)
(* Engine-cost model                                                    *)

(* Costs in units of one light-compute sweep over the amplitude arrays.
   Standalone gates are priced at the kernel that runs them: diagonal
   d0=1 1q kernels touch half the amplitudes, CX/SWAP/CY move half, the
   classified sweep's diagonal (CZ/CP/CRZ) and pure-permutation
   (CCX/CSWAP) steps touch a quarter or less, and its sparse steps
   (CH, the controlled rotations, CU) pay a matvec per group. The
   weights were calibrated against the retired per-gate kernels and
   are kept so plans stay unchanged. *)
let gate_cost (g : Gate.t) =
  match g with
  | Gate.I -> 0.0
  | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg | Gate.P _ -> 0.5
  | Gate.Cx | Gate.Cy | Gate.Swap -> 0.55
  | Gate.Cz | Gate.Cp _ | Gate.Crz _ -> 0.35
  | Gate.Ccx | Gate.Cswap -> 0.3
  | Gate.Ch | Gate.Crx _ | Gate.Cry _ | Gate.Cu _ -> 1.4
  | _ -> if Gate.num_qubits g = 1 then 1.0 else 1.4

(* A pending cluster's cost if flushed as its own kernel, calibrated
   against the engine's measured sweep costs (in units of one
   full-array light sweep): diagonal and monomial (cycle-walking)
   cluster sweeps cost about one sweep regardless of width; a 2-qubit
   non-monomial matrix is priced as the general 4x4 matvec (~1.4);
   anything wider runs as a CSR matvec whose per-amplitude work
   is the average row density — gather/scatter staging makes that
   roughly 0.55 of a sweep per nonzero-per-row on top of a half-sweep
   of fixed overhead. The effect: Clifford+T runs fold into wide
   one-sweep clusters, a single H still fuses into its neighborhood,
   but sparse clusters stop absorbing gates as soon as their rows
   thicken. *)
let cluster_cost (u : Complex.t array array) =
  if is_diag u then 0.7
  else if is_monomial u then 1.2
  else begin
    let n = Array.length u in
    if n <= 4 then 1.4
    else begin
      let nnz = ref 0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if not (zero u.(i).(j)) then incr nnz
        done
      done;
      0.5 +. (0.55 *. float_of_int !nnz /. float_of_int n)
    end
  end

(* ------------------------------------------------------------------ *)
(* The clustering walk                                                  *)

type pend = {
  mutable m : Complex.t array array;
  mutable qs : int array; (* ascending; matrix bit j <-> qs.(j) *)
  mutable gates : int; (* source gates folded in *)
  mutable src : Circuit.op option; (* the sole source op while gates = 1 *)
}

let default_k =
  lazy
    (match Sys.getenv_opt "QIR_SIM_CLUSTER_K" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v -> max 2 (min 6 v)
      | None -> 4)
    | None -> 4)

let sorted_ops qs =
  let a = Array.of_list qs in
  Array.sort compare a;
  a

let distinct_sorted a =
  let ok = ref true in
  for i = 0 to Array.length a - 2 do
    if a.(i) = a.(i + 1) then ok := false
  done;
  !ok

let plan ?k (c : Circuit.t) : step list * stats =
  let k =
    match k with Some v -> max 2 (min 6 v) | None -> Lazy.force default_k
  in
  let nq = max c.Circuit.num_qubits 1 in
  let pending : pend option array = Array.make nq None in
  let rev_steps = ref [] in
  let fused_1q = ref 0
  and absorbed_1q = ref 0
  and fused_2q = ref 0
  and fused_3q = ref 0
  and clusters_emitted = ref 0
  and clustered_gates = ref 0
  and identities = ref 0 in
  let emit s = rev_steps := s :: !rev_steps in
  let lower p =
    if is_identity p.m then incr identities
    else
      match p.src with
      | Some op -> emit (Op op) (* single gate: keep specialized dispatch *)
      | None -> (
        match Array.length p.qs with
        | 1 -> emit (Mat1 (p.m, p.qs.(0)))
        | 2 -> emit (Mat2 (p.m, p.qs.(1), p.qs.(0)))
        | _ ->
          incr clusters_emitted;
          clustered_gates := !clustered_gates + p.gates;
          emit (Cluster (p.m, Array.copy p.qs)))
  in
  let flush_p p =
    Array.iter (fun q -> pending.(q) <- None) p.qs;
    lower p
  in
  let flush q = match pending.(q) with None -> () | Some p -> flush_p p in
  let flush_all () =
    for q = 0 to nq - 1 do
      flush q
    done
  in
  let start op gqs gm =
    if Array.length gqs <= k then
      let p = { m = gm; qs = gqs; gates = 1; src = Some op } in
      Array.iter (fun q -> pending.(q) <- Some p) gqs
    else emit (Op op)
  in
  (* A gate arrives as its local matrix [gm] over sorted qubits [gqs]:
     merge it with every pending cluster it overlaps when the cost
     model approves, otherwise flush those clusters and start fresh. *)
  let handle op g gqs gm =
    let parts =
      Array.fold_left
        (fun acc q ->
          match pending.(q) with
          | Some p when not (List.memq p acc) -> p :: acc
          | _ -> acc)
        [] gqs
    in
    if parts = [] then start op gqs gm
    else begin
      let union =
        let tbl = Hashtbl.create 8 in
        Array.iter (fun q -> Hashtbl.replace tbl q ()) gqs;
        List.iter
          (fun p -> Array.iter (fun q -> Hashtbl.replace tbl q ()) p.qs)
          parts;
        let a = Array.of_seq (Hashtbl.to_seq_keys tbl) in
        Array.sort compare a;
        a
      in
      let merged =
        if Array.length union > k then None
        else begin
          (* the gate applies after the pending clusters; clusters on
             disjoint qubits commute, so their product order is free *)
          let mm = ref (embed gm gqs union) in
          List.iter
            (fun p ->
              (* p.qs is a subset of union, so equal lengths mean the
                 cluster already lives on the union support. *)
              let pm =
                if Array.length p.qs = Array.length union then p.m
                else embed p.m p.qs union
              in
              mm := mat_mul !mm pm)
            parts;
          let merged_cost = cluster_cost !mm in
          let parts_cost =
            List.fold_left
              (fun acc p ->
                acc
                +.
                match p.src with
                | Some { Circuit.kind = Circuit.Gate (pg, _); _ } ->
                  gate_cost pg
                | _ -> cluster_cost p.m)
              0.0 parts
          in
          if merged_cost <= parts_cost +. gate_cost g +. 1e-9 then Some !mm
          else None
        end
      in
      match merged with
      | Some mm ->
        (match Gate.num_qubits g, Array.length union with
        | 1, 1 -> incr fused_1q
        | 1, _ -> incr absorbed_1q
        | 2, _ -> incr fused_2q
        | _ -> incr fused_3q);
        let gates = List.fold_left (fun acc p -> acc + p.gates) 1 parts in
        let np = { m = mm; qs = union; gates; src = None } in
        List.iter
          (fun p -> Array.iter (fun q -> pending.(q) <- None) p.qs)
          parts;
        Array.iter (fun q -> pending.(q) <- Some np) union
      | None ->
        List.iter flush_p parts;
        start op gqs gm
    end
  in
  List.iter
    (fun (op : Circuit.op) ->
      match op.Circuit.kind, op.Circuit.cond with
      | Circuit.Gate (g, qs), None
        when Gate.num_qubits g = List.length qs
             && Gate.num_qubits g <= 3
             && distinct_sorted (sorted_ops qs) ->
        if not (Gate.is_identity g) then begin
          let gqs = sorted_ops qs in
          let gm =
            match Gate.num_qubits g, qs with
            | 1, _ -> Gate.matrix_1q g
            | 2, [ a; b ] ->
              (* matrix_2q's first operand is the most significant bit;
                 the local convention is ascending, LSB first *)
              if a > b then Gate.matrix_2q g
              else swap_roles (Gate.matrix_2q g)
            | _, qs -> mat3_local g (Array.of_list qs) gqs
          in
          handle op g gqs gm
        end
      | Circuit.Barrier [], _ ->
        flush_all ();
        emit (Op op)
      | _ ->
        (* measure, reset, conditioned ops, barriers: fusion barrier on
           the touched qubits *)
        List.iter flush (Circuit.op_qubits op);
        emit (Op op))
    c.Circuit.ops;
  flush_all ();
  let steps = List.rev !rev_steps in
  ( steps,
    {
      ops_in = List.length c.Circuit.ops;
      steps_out = List.length steps;
      fused_1q = !fused_1q;
      absorbed_1q = !absorbed_1q;
      fused_2q = !fused_2q;
      fused_3q = !fused_3q;
      clusters_emitted = !clusters_emitted;
      clustered_gates = !clustered_gates;
      identities_dropped = !identities;
    } )

(* ------------------------------------------------------------------ *)
(* Plan execution                                                       *)

let apply_plan st clbits steps =
  List.iter
    (fun step ->
      match step with
      | Mat1 (m, q) -> Statevector.apply_1q st m q
      | Mat2 (m, a, b) -> Statevector.apply_2q st m a b
      | Cluster (m, qs) -> Statevector.apply_cluster st m qs
      | Op op ->
        if Statevector.cond_holds clbits op.Circuit.cond then (
          match op.Circuit.kind with
          | Circuit.Gate (g, qs) -> Statevector.apply st g qs
          | Circuit.Measure (q, cl) -> clbits.(cl) <- Statevector.measure st q
          | Circuit.Reset q -> Statevector.reset st q
          | Circuit.Barrier _ -> ()))
    steps

(* Drop-in replacement for {!Statevector.run_circuit} that fuses first.
   Measurement sampling consumes the RNG in the same order, so for a
   fixed seed the classical outcomes match the unfused engine (up to
   knife-edge rounding of branch probabilities). *)
let run_circuit ?(seed = 1) ?k (c : Circuit.t) =
  let steps, _stats = plan ?k c in
  let st = Statevector.create ~seed c.Circuit.num_qubits in
  let clbits = Array.make (max c.Circuit.num_clbits 1) false in
  apply_plan st clbits steps;
  (st, clbits)
