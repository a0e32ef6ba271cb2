(* Bit-exact oracle for the classified sweep.

   Every multi-qubit gate except CX and SWAP, and every 4x4 matrix
   given to [apply_2q], runs on the classified cluster sweep
   (diagonal / monomial / CSR). The dedicated kernels it replaced are
   kept below as the oracle, on plain [float array] storage with their
   per-amplitude arithmetic verbatim: CY's exchange, the diagonal 4x4
   phase multiply, the general 4x4 matvec, and the CCX / CSWAP pair
   swaps. The contract is bit-identity, not closeness: every amplitude
   must carry the same IEEE bits ([Int64.bits_of_float]) as the
   oracle's, on a flat register, on one forced into 8-amplitude shards,
   and under a forced 4-Domain pool.

   Prepared states are dense (no exact zero amplitude). On an exact
   zero the sweep may store the other sign of zero than the old
   kernels did, which no probability or measurement can see. *)

open Qcircuit
module Sv = Qsim.Statevector

(* ------------------------------------------------------------------ *)
(* The replaced kernels, on float arrays                                *)

module Oracle = struct
  type t = { n : int; re : float array; im : float array }

  let of_state st =
    let size = Sv.dim st in
    {
      n = Sv.num_qubits st;
      re = Array.init size (fun i -> (Sv.amplitude st i).Complex.re);
      im = Array.init size (fun i -> (Sv.amplitude st i).Complex.im);
    }

  let insert_zero x p = ((x lsr p) lsl (p + 1)) lor (x land ((1 lsl p) - 1))

  let sort2 a b = if a < b then (a, b) else (b, a)

  let sort3 a b c =
    let a, b = sort2 a b in
    let a, c = sort2 a c in
    let b, c = sort2 b c in
    (a, b, c)

  let apply_cy st c t =
    let bc = 1 lsl c and bt = 1 lsl t in
    let p_lo, p_hi = sort2 c t in
    let re = st.re and im = st.im in
    for k = 0 to (1 lsl st.n) / 4 - 1 do
      let i = insert_zero (insert_zero k p_lo) p_hi in
      let i0 = i lor bc in
      let i1 = i0 lor bt in
      let ar = re.(i0) and ai = im.(i0) in
      let br = re.(i1) and bi = im.(i1) in
      re.(i0) <- bi;
      im.(i0) <- -.br;
      re.(i1) <- -.ai;
      im.(i1) <- ar
    done

  (* [d] is indexed by the 2-bit pattern (bit of qa, bit of qb), qa
     most significant; unit entries are skipped *)
  let apply_diag2 st (d : Complex.t array) qa qb =
    let ba = 1 lsl qa and bb = 1 lsl qb in
    let p_lo, p_hi = sort2 qa qb in
    let one (z : Complex.t) = z.re = 1.0 && z.im = 0.0 in
    let re = st.re and im = st.im in
    let mul (z : Complex.t) i =
      let r = re.(i) and m = im.(i) in
      re.(i) <- (z.re *. r) -. (z.im *. m);
      im.(i) <- (z.re *. m) +. (z.im *. r)
    in
    for k = 0 to (1 lsl st.n) / 4 - 1 do
      let i = insert_zero (insert_zero k p_lo) p_hi in
      if not (one d.(0)) then mul d.(0) i;
      if not (one d.(1)) then mul d.(1) (i lor bb);
      if not (one d.(2)) then mul d.(2) (i lor ba);
      if not (one d.(3)) then mul d.(3) (i lor ba lor bb)
    done

  let apply_general2q st (u : Complex.t array array) qa qb =
    let ba = 1 lsl qa and bb = 1 lsl qb in
    let p_lo, p_hi = sort2 qa qb in
    let re = st.re and im = st.im in
    let tmp_re = Array.make 4 0.0 and tmp_im = Array.make 4 0.0 in
    let idx = Array.make 4 0 in
    for k = 0 to (1 lsl st.n) / 4 - 1 do
      let i = insert_zero (insert_zero k p_lo) p_hi in
      idx.(0) <- i;
      idx.(1) <- i lor bb;
      idx.(2) <- i lor ba;
      idx.(3) <- i lor ba lor bb;
      for row = 0 to 3 do
        let sr = ref 0.0 and si = ref 0.0 in
        for col = 0 to 3 do
          let m = u.(row).(col) in
          let j = idx.(col) in
          let vr = re.(j) and vi = im.(j) in
          sr := !sr +. ((m.Complex.re *. vr) -. (m.Complex.im *. vi));
          si := !si +. ((m.Complex.re *. vi) +. (m.Complex.im *. vr))
        done;
        tmp_re.(row) <- !sr;
        tmp_im.(row) <- !si
      done;
      for row = 0 to 3 do
        re.(idx.(row)) <- tmp_re.(row);
        im.(idx.(row)) <- tmp_im.(row)
      done
    done

  let swap_pairs st ~p0 ~p1 ~p2 ~oa ~ob =
    let re = st.re and im = st.im in
    for k = 0 to (1 lsl st.n) / 8 - 1 do
      let i = insert_zero (insert_zero (insert_zero k p0) p1) p2 in
      let i0 = i lor oa and i1 = i lor ob in
      let tr = re.(i0) and ti = im.(i0) in
      re.(i0) <- re.(i1);
      im.(i0) <- im.(i1);
      re.(i1) <- tr;
      im.(i1) <- ti
    done

  let apply_ccx st c1 c2 tgt =
    let b1 = 1 lsl c1 and b2 = 1 lsl c2 and bt = 1 lsl tgt in
    let p0, p1, p2 = sort3 c1 c2 tgt in
    swap_pairs st ~p0 ~p1 ~p2 ~oa:(b1 lor b2) ~ob:(b1 lor b2 lor bt)

  let apply_cswap st c a b =
    let bc = 1 lsl c and ba = 1 lsl a and bb = 1 lsl b in
    let p0, p1, p2 = sort3 c a b in
    swap_pairs st ~p0 ~p1 ~p2 ~oa:(bc lor ba) ~ob:(bc lor bb)

  (* The retired dispatch: diagonal 4x4s took the phase kernel, every
     other 4x4 the general one. *)
  let is_diag (u : Complex.t array array) =
    let ok = ref true in
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j (z : Complex.t) ->
            if i <> j && (z.re <> 0.0 || z.im <> 0.0) then ok := false)
          row)
      u;
    !ok

  let apply_2q st u qa qb =
    if is_diag u then
      apply_diag2 st [| u.(0).(0); u.(1).(1); u.(2).(2); u.(3).(3) |] qa qb
    else apply_general2q st u qa qb

  let apply st (g : Gate.t) qs =
    match g, qs with
    | Gate.Cy, [ c; t ] -> apply_cy st c t
    | Gate.Ccx, [ a; b; c ] -> apply_ccx st a b c
    | Gate.Cswap, [ a; b; c ] -> apply_cswap st a b c
    | _, [ a; b ] -> apply_2q st (Gate.matrix_2q g) a b
    | _ -> assert false
end

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)

let n = 6

(* Three layers of random U3 rotations on every qubit, each followed by
   a CX ladder: generic angles leave no amplitude exactly zero. *)
let dense_state seed =
  let rng = Rng.create seed in
  let angle () = Rng.float rng *. 2.0 *. Float.pi in
  let b = Circuit.Build.create ~num_qubits:n ~num_clbits:0 () in
  for _ = 1 to 3 do
    for q = 0 to n - 1 do
      Circuit.Build.gate b (Gate.U (angle (), angle (), angle ())) [ q ]
    done;
    for q = 0 to n - 2 do
      Circuit.Build.gate b Gate.Cx [ q; q + 1 ]
    done
  done;
  let st, _ = Sv.Reference.run_circuit (Circuit.Build.finish b) in
  for i = 0 to Sv.dim st - 1 do
    let z = Sv.amplitude st i in
    if z.Complex.re = 0.0 || z.Complex.im = 0.0 then
      Alcotest.failf "seed %d: amplitude %d has an exact zero part" seed i
  done;
  st

let bits = Int64.bits_of_float

let check_bits what st (o : Oracle.t) =
  for i = 0 to Sv.dim st - 1 do
    let z = Sv.amplitude st i in
    if bits z.Complex.re <> bits o.re.(i) || bits z.Complex.im <> bits o.im.(i)
    then
      Alcotest.failf "%s: amplitude %d is (%h, %h), oracle (%h, %h)" what i
        z.Complex.re z.Complex.im o.re.(i) o.im.(i)
  done

(* Pairs and triples within, across and above the 8-amplitude shard
   boundary of [set_max_local_bits 3] (qubits 3..5 are high). *)
let pairs = [ (0, 1); (1, 0); (0, 5); (3, 1); (5, 4); (2, 3) ]
let triples = [ [ 0; 1; 2 ]; [ 2; 0; 4 ]; [ 4; 3; 1 ]; [ 5; 4; 3 ]; [ 1; 5; 3 ] ]

let cmul (a : Complex.t array array) (b : Complex.t array array) =
  Array.init 4 (fun i ->
      Array.init 4 (fun j ->
          let s = ref Complex.zero in
          for k = 0 to 3 do
            s := Complex.add !s (Complex.mul a.(i).(k) b.(k).(j))
          done;
          !s))

let kron (a : Complex.t array array) (b : Complex.t array array) =
  Array.init 4 (fun i ->
      Array.init 4 (fun j -> Complex.mul a.(i / 2).(j / 2) b.(i mod 2).(j mod 2)))

let phase t = Complex.polar 1.0 t

(* One 4x4 of each structure the sweep classifies. *)
let matrices_4x4 =
  let h = Gate.matrix_1q Gate.H in
  let i2 = Gate.matrix_1q Gate.I in
  let diag d = Array.init 4 (fun i -> Array.init 4 (fun j -> if i = j then d.(i) else Complex.zero)) in
  let monomial =
    let perm = [| 2; 0; 3; 1 |] and ph = [| 0.3; 1.1; 2.9; 4.2 |] in
    Array.init 4 (fun i ->
        Array.init 4 (fun j -> if j = perm.(i) then phase ph.(i) else Complex.zero))
  in
  [
    ("diagonal", diag [| Complex.one; phase 0.7; phase 2.2; phase 5.1 |]);
    ("monomial", monomial);
    ("unit permutation", Gate.matrix_2q Gate.Swap);
    ("2-sparse", cmul (kron h i2) monomial);
    ( "dense",
      cmul
        (kron (Gate.matrix_1q (Gate.U (0.4, 1.3, 2.1))) (Gate.matrix_1q (Gate.Ry 0.9)))
        (cmul (Gate.matrix_2q Gate.Cx) (kron h (Gate.matrix_1q (Gate.Rx 1.7)))) );
  ]

(* ------------------------------------------------------------------ *)
(* The checks                                                           *)

let oracle_check mode () =
  List.iteri
    (fun gi g ->
      List.iter
        (fun (a, b) ->
          let st = dense_state (100 + gi) in
          let o = Oracle.of_state st in
          Sv.apply st g [ a; b ];
          Oracle.apply o g [ a; b ];
          check_bits
            (Printf.sprintf "%s: %s [%d;%d]" mode (Gate.to_string g) a b)
            st o)
        pairs)
    Test_engine.gates_2q;
  List.iter
    (fun g ->
      List.iter
        (fun qs ->
          let st = dense_state 200 in
          let o = Oracle.of_state st in
          Sv.apply st g qs;
          Oracle.apply o g qs;
          check_bits
            (Printf.sprintf "%s: %s [%s]" mode (Gate.to_string g)
               (String.concat ";" (List.map string_of_int qs)))
            st o)
        triples)
    [ Gate.Ccx; Gate.Cswap ];
  List.iteri
    (fun mi (name, u) ->
      List.iter
        (fun (a, b) ->
          let st = dense_state (300 + mi) in
          let o = Oracle.of_state st in
          Sv.apply_2q st u a b;
          Oracle.apply_2q o u a b;
          check_bits
            (Printf.sprintf "%s: apply_2q %s [%d;%d]" mode name a b)
            st o)
        pairs)
    matrices_4x4

let with_local_bits = Test_engine.with_local_bits
let with_pool = Test_engine.with_pool

let test_flat () = oracle_check "flat" ()

let test_sharded () =
  with_local_bits 3 (fun () ->
      Alcotest.(check int) "sharded" 8 (Sv.shard_count (Sv.create n));
      oracle_check "local bits 3" ())

let test_pool () =
  with_pool ~domains:4 ~threshold:4 (fun () ->
      oracle_check "4 domains" ();
      with_local_bits 3 (oracle_check "4 domains, local bits 3"))

(* A fused 1-qubit Hadamard on a 4-qubit register takes the uniform-2
   CSR path; its block scratch is sized by the register's 8 groups,
   not by the 1024-group cap. *)
(* A 6-qubit 2-sparse unitary whose rows come in partner pairs: H on
   bit 0 times a permutation of the upper five bits. *)
let sparse6 =
  let h = 1.0 /. sqrt 2.0 in
  Array.init 64 (fun r ->
      Array.init 64 (fun c ->
          if c lsr 1 <> ((r lsr 1) * 5 + 3) land 31 then Complex.zero
          else if r land c land 1 = 1 then { Complex.re = -.h; im = 0.0 }
          else { Complex.re = h; im = 0.0 }))

let test_small_sweep_alloc () =
  with_pool ~domains:1 ~threshold:(1 lsl 14) (fun () ->
      let st = Sv.create 4 in
      let h = Gate.matrix_1q Gate.H in
      Sv.apply_cluster st h [| 2 |];
      let a0 = Gc.allocated_bytes () in
      Sv.apply_cluster st h [| 1 |];
      let bytes = Gc.allocated_bytes () -. a0 in
      if bytes >= 4096.0 then
        Alcotest.failf "apply_cluster on 4 qubits allocated %.0f bytes" bytes;
      (* the partner-row pairing is part of the classification, not a
         per-call sub x sub scratch *)
      let st = Sv.create 6 and qs = Array.init 6 Fun.id in
      Sv.apply_cluster st sparse6 qs;
      let a0 = Gc.allocated_bytes () in
      Sv.apply_cluster st sparse6 qs;
      let bytes = Gc.allocated_bytes () -. a0 in
      if bytes >= 4096.0 then
        Alcotest.failf "2-sparse apply_cluster on 6 qubits allocated %.0f bytes"
          bytes)

let suite =
  [
    Alcotest.test_case "classified sweep = retired kernels (flat)" `Quick
      test_flat;
    Alcotest.test_case "classified sweep = retired kernels (sharded)" `Quick
      test_sharded;
    Alcotest.test_case "classified sweep = retired kernels (4 domains)" `Quick
      test_pool;
    Alcotest.test_case "small-register sweep allocates under 4 KiB" `Quick
      test_small_sweep_alloc;
  ]
