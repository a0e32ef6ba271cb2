(* Dense statevector simulator: the stand-in for PennyLane Lightning in
   the paper's Ex. 5. Amplitudes live in unboxed [Bigarray.Array1]
   float64 slices (real/imaginary separately): registers up to
   [max_local_bits] qubits live in one flat pair of slices (the
   historical layout, and still the fastest), larger ones split into
   2^(n - local_bits) contiguous shards that the {!Dpool} Domain pool
   can own wholesale — which is what lifts the register cap to 30
   qubits. The Bigarray buffers sit outside the OCaml heap: kernels
   index them without bounds checks ([Array1.unsafe_get/set]) over
   enumerations that are in bounds by construction, so the hot loops
   compile to flat load/multiply/store sequences the hardware can
   stream (and the GC never scans or moves the amplitudes).

   Qubit [q] indexes bit [q] of the basis-state index (qubit 0 is the
   least-significant bit). The simulator supports growing the register
   one qubit at a time ([add_qubit]) to serve dynamic qubit allocation
   (the paper's Sec. IV-A).

   Engine layering (the hot path of the whole toolchain):
   - two kernel families. 1-qubit gates, CX and SWAP have dedicated
     kernels (permutation / diagonal / real / general 2x2 and the
     pair swap), which enumerate only the indices with the operand
     bits clear (size/2 or size/4 iterations). Every other matrix — a
     fused cluster, a fused 2-qubit step, CY, CZ, CH, CP, the
     controlled rotations, CU, CCX, CSWAP — is classified once as
     diagonal, monomial (permutation with phases) or sparse (CSR) and
     applied by one sweep over the groups of 2^m amplitudes
     ({!apply_cluster}); the fixed gates' classifications are built
     at module initialisation;
   - when the register is large enough, sweeps split their index
     range across a reusable Domain pool ({!Dpool});
   - cross-shard work runs a stride-aware shard exchange: the involved
     bit positions are split once at the shard boundary, the high
     positions select shard groups, the low positions form a mask
     whose clear-bit offsets are enumerated by mask-increment — one
     pass per shard group over large contiguous runs. A pure
     permutation whose bits all sit at or above the boundary swaps
     shard references instead: O(1) per shard group;
   - the seed's full-scan general kernels survive in {!Reference}
     (re-addressed for the sharded layout, arithmetic untouched) as the
     correctness oracle for tests and the baseline for benchmarks. *)

open Qcircuit

let max_qubits = 30

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> default)
  | None -> default

(* Shard granularity: each shard holds 2^local_bits amplitudes. The
   default keeps registers up to 24 qubits in a single flat pair of
   slices (the fastest layout); larger registers split into
   2^(n - local_bits) contiguous shards so the Domain pool can own
   whole shards. *)
let default_local_bits = 24

let max_local_bits_ref =
  ref (max 1 (min max_qubits (env_int "QIR_SIM_LOCAL_BITS" default_local_bits)))

let max_local_bits () = !max_local_bits_ref

let set_max_local_bits b =
  if b < 1 || b > max_qubits then
    invalid_arg "Statevector.set_max_local_bits: need 1 <= bits <= 30";
  max_local_bits_ref := b

(* Auditability switch for the [Array1.unsafe_get/set] sweeps: when
   set, every index derived from the bit-insertion / mask-increment
   enumerations is re-asserted against the slice bounds before use. *)
let checked_access_ref =
  ref
    (match Sys.getenv_opt "QIR_SIM_CHECKED" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let checked_access () = !checked_access_ref
let set_checked_access b = checked_access_ref := b

(* ------------------------------------------------------------------ *)
(* Storage                                                              *)

module Ba = Bigarray.Array1

(* One shard of amplitudes: unboxed float64, C layout, off-heap. *)
type slice = (float, Bigarray.float64_elt, Bigarray.c_layout) Ba.t

let ba_make n : slice =
  let a = Ba.create Bigarray.Float64 Bigarray.C_layout n in
  Ba.fill a 0.0;
  a

(* Concrete-typed, fully-applied wrappers: the [unsafe_get/set]
   primitives compile to direct unboxed float64 loads/stores only when
   applied at a site whose Bigarray kind and layout are statically
   known. An eta-reduced alias ([let bget = Ba.unsafe_get]) degrades
   every access to the generic polymorphic C stub with a boxed result —
   an order-of-magnitude slowdown on the gate sweeps. *)
let[@inline always] bget (a : slice) i : float = Ba.unsafe_get a i
let[@inline always] bset (a : slice) i (v : float) = Ba.unsafe_set a i v

(* Global basis index [i] lives in shard [i lsr lb] at offset
   [i land (2^lb - 1)]. A register with [n <= lb] is a single shard and
   takes the historical flat code paths unchanged. *)
type t = {
  mutable n : int;
  mutable lb : int; (* log2 of the shard size, [min n max_local_bits] *)
  mutable re : slice array;
  mutable im : slice array;
  rng : Rng.t;
}

let create ?(seed = 1) n =
  if n < 0 || n > max_qubits then
    Sim_error.error ~op:"Statevector.create" "0 <= n <= %d required, got %d"
      max_qubits n;
  let lb = min n !max_local_bits_ref in
  let shards = 1 lsl (n - lb) in
  let shard_size = 1 lsl lb in
  let re = Array.init shards (fun _ -> ba_make shard_size) in
  let im = Array.init shards (fun _ -> ba_make shard_size) in
  re.(0).{0} <- 1.0;
  { n; lb; re; im; rng = Rng.create seed }

let num_qubits st = st.n
let dim st = 1 lsl st.n
let local_bits st = st.lb
let shard_count st = Array.length st.re
let sharded st = st.lb < st.n

let amplitude st i =
  let lm = (1 lsl st.lb) - 1 in
  { Complex.re = st.re.(i lsr st.lb).{i land lm};
    im = st.im.(i lsr st.lb).{i land lm} }

let probability st i =
  let lm = (1 lsl st.lb) - 1 in
  let r = st.re.(i lsr st.lb).{i land lm}
  and m = st.im.(i lsr st.lb).{i land lm} in
  (r *. r) +. (m *. m)

(* Direct fill (no closure per element). Beware: materializes all 2^n
   probabilities; the sampler uses {!cumulative_marginal} instead. *)
let probabilities st =
  let out = Array.make (dim st) 0.0 in
  let shard_size = 1 lsl st.lb in
  for s = 0 to shard_count st - 1 do
    let re = st.re.(s) and im = st.im.(s) in
    let base = s lsl st.lb in
    for j = 0 to shard_size - 1 do
      let r = bget re j and m = bget im j in
      Array.unsafe_set out (base + j) ((r *. r) +. (m *. m))
    done
  done;
  out

(* The sampler's kernel: one sweep in basis order, shard by shard. Every
   outcome's probabilities are added in increasing basis-index order
   (and [0.0 +. p = p] exactly), so each entry is bit-for-bit the
   running sum of the per-amplitude marginal, whatever the shard
   layout. *)
let cumulative_marginal st qubits =
  let m = Array.length qubits in
  let out = Array.make (1 lsl m) 0.0 in
  let shard_size = 1 lsl st.lb in
  let identity = m = st.n && Array.for_all Fun.id (Array.mapi ( = ) qubits) in
  if identity then begin
    (* outcome = basis index: accumulate straight into the cumulative *)
    let acc = ref 0.0 in
    for s = 0 to shard_count st - 1 do
      let re = st.re.(s) and im = st.im.(s) in
      let base = s lsl st.lb in
      for j = 0 to shard_size - 1 do
        let r = bget re j and mi = bget im j in
        acc := !acc +. ((r *. r) +. (mi *. mi));
        Array.unsafe_set out (base + j) !acc
      done
    done
  end
  else begin
    (* tables.(b).(v): the outcome bits of the qubits in byte [b] of the
       basis index when that byte is [v]. The gather is linear over
       disjoint bits, so the outcome of index [hi lor lo] (with [lo] the
       low byte) is [gather hi lor tables.(0).(lo)]. *)
    let tables =
      Array.init
        (max 1 ((st.n + 7) / 8))
        (fun b ->
          Array.init 256 (fun v ->
              let o = ref 0 in
              Array.iteri
                (fun j q ->
                  if q lsr 3 = b && v land (1 lsl (q land 7)) <> 0 then
                    o := !o lor (1 lsl j))
                qubits;
              !o))
    in
    let gather i =
      let o = ref 0 and i = ref i and b = ref 0 in
      while !i <> 0 do
        o := !o lor tables.(!b).(!i land 255);
        i := !i lsr 8;
        incr b
      done;
      !o
    in
    let low = tables.(0) in
    let block = min 256 shard_size in
    for s = 0 to shard_count st - 1 do
      let re = st.re.(s) and im = st.im.(s) in
      let base = s lsl st.lb in
      for blk = 0 to (shard_size / block) - 1 do
        let j0 = blk * block in
        let ohi = gather (base + j0) in
        for l = 0 to block - 1 do
          let r = bget re (j0 + l) and mi = bget im (j0 + l) in
          let o = ohi lor Array.unsafe_get low l in
          Array.unsafe_set out o
            (Array.unsafe_get out o +. ((r *. r) +. (mi *. mi)))
        done
      done
    done;
    let acc = ref 0.0 in
    for o = 0 to Array.length out - 1 do
      acc := !acc +. Array.unsafe_get out o;
      Array.unsafe_set out o !acc
    done
  end;
  out

let check_qubit st q =
  if q < 0 || q >= st.n then
    Sim_error.error ~op:"Statevector" "qubit %d out of range [0, %d)" q st.n

(* Tensors |0> onto the high end of the register. While the register
   fits in one shard this doubles the flat slices (as before); once it
   crosses [max_local_bits] growth appends zero shards — no copy of the
   existing amplitudes at all. *)
let add_qubit st =
  if st.n >= max_qubits then
    Sim_error.error ~op:"Statevector.add_qubit"
      "register limit of %d qubits reached" max_qubits;
  if (not (sharded st)) && st.n < !max_local_bits_ref then begin
    let old_size = dim st in
    let re = ba_make (old_size * 2) and im = ba_make (old_size * 2) in
    Ba.blit st.re.(0) (Ba.sub re 0 old_size);
    Ba.blit st.im.(0) (Ba.sub im 0 old_size);
    st.re <- [| re |];
    st.im <- [| im |];
    st.n <- st.n + 1;
    st.lb <- st.n
  end
  else begin
    let sc = shard_count st in
    let shard_size = 1 lsl st.lb in
    let zeros () = Array.init sc (fun _ -> ba_make shard_size) in
    st.re <- Array.append st.re (zeros ());
    st.im <- Array.append st.im (zeros ());
    st.n <- st.n + 1
  end

let ensure_qubits st n =
  while st.n < n do
    add_qubit st
  done

(* ------------------------------------------------------------------ *)
(* Index enumeration                                                    *)

(* [insert_zero x p] re-spreads [x] so that bit position [p] of the
   result is 0: the k-th index among those with bit p clear. Composing
   insertions in ascending position order enumerates the indices with
   several bits clear. *)
let insert_zero x p = ((x lsr p) lsl (p + 1)) lor (x land ((1 lsl p) - 1))

let sort2 a b = if a < b then (a, b) else (b, a)

(* [enum_base ps k]: the k-th smallest index among those with every
   (ascending) bit position in [ps] clear. *)
let enum_base ps k =
  let b = ref k in
  for j = 0 to Array.length ps - 1 do
    b := insert_zero !b (Array.unsafe_get ps j)
  done;
  !b

let mask_of ps = Array.fold_left (fun m p -> m lor (1 lsl p)) 0 ps

(* Splits sorted bit positions at the shard boundary: positions below
   [lb] stay in-shard offsets, positions at or above map (shifted down
   by [lb]) to bits of the shard index. *)
let split_low_high lb ps =
  let lows = ref [] and highs = ref [] in
  Array.iter
    (fun p ->
      if p < lb then lows := p :: !lows else highs := (p - lb) :: !highs)
    ps;
  (Array.of_list (List.rev !lows), Array.of_list (List.rev !highs))

(* ------------------------------------------------------------------ *)
(* Stride-aware shard exchange                                          *)

(* Sharded kernels no longer re-split every global index into
   (shard, offset): the gate's involved bit positions are split once at
   the shard boundary. Positions at or above [lb] enumerate shard
   groups (bit insertion over the shard index), positions below [lb]
   form a mask whose clear-bit offsets step by mask-increment
   (next = ((o lor mask) + 1) land lnot mask, O(1) per group) — so each
   shard pair is swept in one pass of large contiguous runs, and the
   per-pair arithmetic is the flat kernels' verbatim. Per-pair work is
   independent, so the changed traversal order leaves every amplitude
   bit-identical to the flat layout. *)

(* [sh_pairs st ~ps ~oa ~ob body]: for every group base [i] (all bits
   in the sorted positions [ps] clear) the gate touches the pair
   (i lor oa, i lor ob). [body] receives the two shard slices, the two
   in-shard offset deltas, the low-bit mask and the number of offsets
   to enumerate, and sweeps one shard pair. *)
let sh_pairs st ~ps ~oa ~ob body =
  let lb = st.lb in
  let lm = (1 lsl lb) - 1 in
  let lows, highs = split_low_high lb ps in
  let lmsk = mask_of lows in
  let inner = (1 lsl lb) lsr Array.length lows in
  let sa = oa lsr lb and sb = ob lsr lb in
  let oal = oa land lm and obl = ob land lm in
  let res = st.re and ims = st.im in
  let sgroups = Array.length res lsr Array.length highs in
  Dpool.run_tasks ~count:sgroups (fun g ->
      let sbase = enum_base highs g in
      let s0 = sbase lor sa and s1 = sbase lor sb in
      body res.(s0) ims.(s0) res.(s1) ims.(s1) oal obl lmsk inner)

(* Scales every amplitude at (group base lor off) by (zr + i*zi): the
   diagonal-gate building block. When [off]'s bits all sit above the
   shard boundary this is a contiguous whole-shard multiply. *)
let sh_scale st ~ps ~off ~zr ~zi =
  let lb = st.lb in
  let lm = (1 lsl lb) - 1 in
  let lows, highs = split_low_high lb ps in
  let lmsk = mask_of lows in
  let nmsk = lnot lmsk in
  let inner = (1 lsl lb) lsr Array.length lows in
  let so = off lsr lb and ol = off land lm in
  let res = st.re and ims = st.im in
  let checked = !checked_access_ref in
  let sgroups = Array.length res lsr Array.length highs in
  Dpool.run_tasks ~count:sgroups (fun g ->
      let s = enum_base highs g lor so in
      let re = res.(s) and im = ims.(s) in
      let o = ref 0 in
      for _ = 1 to inner do
        let i = !o lor ol in
        if checked then assert (i >= 0 && i < Ba.dim re);
        let r = bget re i and m = bget im i in
        bset re i ((zr *. r) -. (zi *. m));
        bset im i ((zr *. m) +. (zi *. r));
        o := ((!o lor lmsk) + 1) land nmsk
      done)

(* A pure permutation whose involved bits all sit at or above the
   shard boundary permutes whole shards. For every shard group (bit
   insertion over [highs]) it runs a move program over shard-index
   deltas on the slice references: save the slices of each [hd] slot,
   give slot [mv_dst.(j)] the slices of slot [mv_src.(j)], then give
   each [cl] slot its cycle's saved slices. O(1) per shard group, with
   no amplitude traffic (a GHZ chain's high-bit CNOTs on a 28q register
   cost nothing per amplitude). *)
let rotate_shards st highs ~hd ~mv_dst ~mv_src ~cl =
  let sgroups = Array.length st.re lsr Array.length highs in
  let tre = Array.map (fun _ -> st.re.(0)) hd in
  let tim = Array.map (fun _ -> st.im.(0)) hd in
  for g = 0 to sgroups - 1 do
    let sbase = enum_base highs g in
    Array.iteri
      (fun w d ->
        tre.(w) <- st.re.(sbase lor d);
        tim.(w) <- st.im.(sbase lor d))
      hd;
    Array.iteri
      (fun j d ->
        let src = sbase lor mv_src.(j) in
        st.re.(sbase lor d) <- st.re.(src);
        st.im.(sbase lor d) <- st.im.(src))
      mv_dst;
    Array.iteri
      (fun w d ->
        st.re.(sbase lor d) <- tre.(w);
        st.im.(sbase lor d) <- tim.(w))
      cl
  done

(* Pair-swapping permutation gates (X, CX, SWAP): whole-shard swaps
   when every involved bit is high, otherwise shard-pair sweeps with
   the swap body. *)
let sh_perm st ~ps ~oa ~ob =
  let lb = st.lb in
  let lows, highs = split_low_high lb ps in
  if Array.length lows = 0 then
    let sa = oa lsr lb and sb = ob lsr lb in
    rotate_shards st highs ~hd:[| sa |] ~mv_dst:[| sa |] ~mv_src:[| sb |]
      ~cl:[| sb |]
  else begin
    let checked = !checked_access_ref in
    sh_pairs st ~ps ~oa ~ob (fun r0 m0 r1 m1 oal obl lmsk inner ->
        let nmsk = lnot lmsk in
        let o = ref 0 in
        for _ = 1 to inner do
          let o0 = !o lor oal and o1 = !o lor obl in
          if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
          let tr = bget r0 o0 and ti = bget m0 o0 in
          bset r0 o0 (bget r1 o1);
          bset m0 o0 (bget m1 o1);
          bset r1 o1 tr;
          bset m1 o1 ti;
          o := ((!o lor lmsk) + 1) land nmsk
        done)
  end

(* Y's exchange: a0' = -i*a1, a1' = i*a0. *)
let sh_y st ~ps ~oa ~ob =
  let checked = !checked_access_ref in
  sh_pairs st ~ps ~oa ~ob (fun r0 m0 r1 m1 oal obl lmsk inner ->
      let nmsk = lnot lmsk in
      let o = ref 0 in
      for _ = 1 to inner do
        let o0 = !o lor oal and o1 = !o lor obl in
        if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
        let ar = bget r0 o0 and ai = bget m0 o0 in
        let br = bget r1 o1 and bi = bget m1 o1 in
        bset r0 o0 bi;
        bset m0 o0 (-.br);
        bset r1 o1 (-.ai);
        bset m1 o1 ar;
        o := ((!o lor lmsk) + 1) land nmsk
      done)

(* ------------------------------------------------------------------ *)
(* Specialized 1-qubit kernels                                          *)

(* Permutation: X swaps each (i0, i1) pair. *)
let apply_x st q =
  check_qubit st q;
  if sharded st then sh_perm st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:half (fun lo hi ->
        (* the pair index is monotone in [k]: asserting the chunk's
           last index covers every unsafe access in the chunk *)
        if checked && hi > lo then begin
          let kx = hi - 1 in
          assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                  < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
          let i1 = i0 lor bit in
          let tr = bget re i0 and ti = bget im i0 in
          bset re i0 (bget re i1);
          bset im i0 (bget im i1);
          bset re i1 tr;
          bset im i1 ti
        done)
  end

(* Y = [[0, -i]; [i, 0]]: a0' = -i*a1, a1' = i*a0. *)
let apply_y st q =
  check_qubit st q;
  if sharded st then sh_y st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:half (fun lo hi ->
        (* the pair index is monotone in [k]: asserting the chunk's
           last index covers every unsafe access in the chunk *)
        if checked && hi > lo then begin
          let kx = hi - 1 in
          assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                  < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
          let i1 = i0 lor bit in
          let ar = bget re i0 and ai = bget im i0 in
          let br = bget re i1 and bi = bget im i1 in
          bset re i0 bi;
          bset im i0 (-.br);
          bset re i1 (-.ai);
          bset im i1 ar
        done)
  end

(* Diagonal: amp(i0) *= d0, amp(i1) *= d1, no pair shuffle. The common
   d0 = 1 case (Z, S, T, P) touches only the bit-set half. *)
let apply_diag1 st ~d0re ~d0im ~d1re ~d1im q =
  check_qubit st q;
  if sharded st then begin
    if d0re = 1.0 && d0im = 0.0 then
      sh_scale st ~ps:[| q |] ~off:(1 lsl q) ~zr:d1re ~zi:d1im
    else begin
      let checked = !checked_access_ref in
      sh_pairs st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
        (fun r0 m0 r1 m1 oal obl lmsk inner ->
          let nmsk = lnot lmsk in
          let o = ref 0 in
          for _ = 1 to inner do
            let o0 = !o lor oal and o1 = !o lor obl in
            if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
            let a = bget r0 o0 and b = bget m0 o0 in
            bset r0 o0 ((d0re *. a) -. (d0im *. b));
            bset m0 o0 ((d0re *. b) +. (d0im *. a));
            let a = bget r1 o1 and b = bget m1 o1 in
            bset r1 o1 ((d1re *. a) -. (d1im *. b));
            bset m1 o1 ((d1re *. b) +. (d1im *. a));
            o := ((!o lor lmsk) + 1) land nmsk
          done)
    end
  end
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    if d0re = 1.0 && d0im = 0.0 then
      Dpool.run ~size:half (fun lo hi ->
          if checked && hi > lo then begin
            let kx = hi - 1 in
            assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                    < Ba.dim re)
          end;
          for k = lo to hi - 1 do
            let i1 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) lor bit in
            let r = bget re i1 and m = bget im i1 in
            bset re i1 ((d1re *. r) -. (d1im *. m));
            bset im i1 ((d1re *. m) +. (d1im *. r))
          done)
    else
      Dpool.run ~size:half (fun lo hi ->
          if checked && hi > lo then begin
            let kx = hi - 1 in
            assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                    < Ba.dim re)
          end;
          for k = lo to hi - 1 do
            let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
            let i1 = i0 lor bit in
            let r0 = bget re i0 and m0 = bget im i0 in
            bset re i0 ((d0re *. r0) -. (d0im *. m0));
            bset im i0 ((d0re *. m0) +. (d0im *. r0));
            let r1 = bget re i1 and m1 = bget im i1 in
            bset re i1 ((d1re *. r1) -. (d1im *. m1));
            bset im i1 ((d1re *. m1) +. (d1im *. r1))
          done)
  end

(* Anti-diagonal [[0, b]; [c, 0]]: a0' = b*a1, a1' = c*a0 (X up to
   phases — e.g. Y, or fused X-conjugated diagonals). *)
let apply_antidiag1 st ~bre ~bim ~cre ~cim q =
  check_qubit st q;
  if sharded st then begin
    let checked = !checked_access_ref in
    sh_pairs st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
      (fun r0 m0 r1 m1 oal obl lmsk inner ->
        let nmsk = lnot lmsk in
        let o = ref 0 in
        for _ = 1 to inner do
          let o0 = !o lor oal and o1 = !o lor obl in
          if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
          let ar = bget r0 o0 and ai = bget m0 o0 in
          let br = bget r1 o1 and bi = bget m1 o1 in
          bset r0 o0 ((bre *. br) -. (bim *. bi));
          bset m0 o0 ((bre *. bi) +. (bim *. br));
          bset r1 o1 ((cre *. ar) -. (cim *. ai));
          bset m1 o1 ((cre *. ai) +. (cim *. ar));
          o := ((!o lor lmsk) + 1) land nmsk
        done)
  end
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:half (fun lo hi ->
        (* the pair index is monotone in [k]: asserting the chunk's
           last index covers every unsafe access in the chunk *)
        if checked && hi > lo then begin
          let kx = hi - 1 in
          assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                  < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
          let i1 = i0 lor bit in
          let ar = bget re i0 and ai = bget im i0 in
          let br = bget re i1 and bi = bget im i1 in
          bset re i0 ((bre *. br) -. (bim *. bi));
          bset im i0 ((bre *. bi) +. (bim *. br));
          bset re i1 ((cre *. ar) -. (cim *. ai));
          bset im i1 ((cre *. ai) +. (cim *. ar))
        done)
  end

(* Real 2x2 matrix (H, Ry): halves the multiply count of the general
   kernel — real and imaginary parts never mix. *)
let apply_real1q st ~u00 ~u01 ~u10 ~u11 q =
  check_qubit st q;
  if sharded st then begin
    let checked = !checked_access_ref in
    sh_pairs st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
      (fun r0 m0 r1 m1 oal obl lmsk inner ->
        let nmsk = lnot lmsk in
        let o = ref 0 in
        for _ = 1 to inner do
          let o0 = !o lor oal and o1 = !o lor obl in
          if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
          let ar = bget r0 o0 and ai = bget m0 o0 in
          let br = bget r1 o1 and bi = bget m1 o1 in
          bset r0 o0 ((u00 *. ar) +. (u01 *. br));
          bset m0 o0 ((u00 *. ai) +. (u01 *. bi));
          bset r1 o1 ((u10 *. ar) +. (u11 *. br));
          bset m1 o1 ((u10 *. ai) +. (u11 *. bi));
          o := ((!o lor lmsk) + 1) land nmsk
        done)
  end
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:half (fun lo hi ->
        (* the pair index is monotone in [k]: asserting the chunk's
           last index covers every unsafe access in the chunk *)
        if checked && hi > lo then begin
          let kx = hi - 1 in
          assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                  < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
          let i1 = i0 lor bit in
          let ar = bget re i0 and ai = bget im i0 in
          let br = bget re i1 and bi = bget im i1 in
          bset re i0 ((u00 *. ar) +. (u01 *. br));
          bset im i0 ((u00 *. ai) +. (u01 *. bi));
          bset re i1 ((u10 *. ar) +. (u11 *. br));
          bset im i1 ((u10 *. ai) +. (u11 *. bi))
        done)
  end

(* General single-qubit unitary on qubit [q]: enumerates only the
   bit-clear half of the index space. *)
let apply_general1q st ~u00re ~u00im ~u01re ~u01im ~u10re ~u10im ~u11re
    ~u11im q =
  check_qubit st q;
  if sharded st then begin
    let checked = !checked_access_ref in
    sh_pairs st ~ps:[| q |] ~oa:0 ~ob:(1 lsl q)
      (fun r0 m0 r1 m1 oal obl lmsk inner ->
        let nmsk = lnot lmsk in
        let o = ref 0 in
        for _ = 1 to inner do
          let o0 = !o lor oal and o1 = !o lor obl in
          if checked then assert (o0 < Ba.dim r0 && o1 < Ba.dim r1);
          let ar = bget r0 o0 and ai = bget m0 o0 in
          let br = bget r1 o1 and bi = bget m1 o1 in
          bset r0 o0
            ((u00re *. ar) -. (u00im *. ai) +. (u01re *. br) -. (u01im *. bi));
          bset m0 o0
            ((u00re *. ai) +. (u00im *. ar) +. (u01re *. bi) +. (u01im *. br));
          bset r1 o1
            ((u10re *. ar) -. (u10im *. ai) +. (u11re *. br) -. (u11im *. bi));
          bset m1 o1
            ((u10re *. ai) +. (u10im *. ar) +. (u11re *. bi) +. (u11im *. br));
          o := ((!o lor lmsk) + 1) land nmsk
        done)
  end
  else begin
    let bit = 1 lsl q in
    let half = dim st / 2 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:half (fun lo hi ->
        (* the pair index is monotone in [k]: asserting the chunk's
           last index covers every unsafe access in the chunk *)
        if checked && hi > lo then begin
          let kx = hi - 1 in
          assert (((kx lsr q) lsl (q + 1)) lor (kx land (bit - 1)) lor bit
                  < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i0 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) in
          let i1 = i0 lor bit in
          let ar = bget re i0 and ai = bget im i0 in
          let br = bget re i1 and bi = bget im i1 in
          bset re i0
            ((u00re *. ar) -. (u00im *. ai) +. (u01re *. br) -. (u01im *. bi));
          bset im i0
            ((u00re *. ai) +. (u00im *. ar) +. (u01re *. bi) +. (u01im *. br));
          bset re i1
            ((u10re *. ar) -. (u10im *. ai) +. (u11re *. br) -. (u11im *. bi));
          bset im i1
            ((u10re *. ai) +. (u10im *. ar) +. (u11re *. bi) +. (u11im *. br))
        done)
  end

(* Structure dispatch for an arbitrary 2x2 matrix. The zero tests are
   exact: gate matrices carry exact 0.0 entries and matrix products of
   structured matrices preserve them. *)
let apply_1q st (u : Complex.t array array) q =
  let u00 = u.(0).(0) and u01 = u.(0).(1) and u10 = u.(1).(0) and u11 = u.(1).(1) in
  let zero (z : Complex.t) = z.Complex.re = 0.0 && z.Complex.im = 0.0 in
  let r (z : Complex.t) = z.Complex.re and i (z : Complex.t) = z.Complex.im in
  if zero u01 && zero u10 then
    apply_diag1 st ~d0re:(r u00) ~d0im:(i u00) ~d1re:(r u11) ~d1im:(i u11) q
  else if zero u00 && zero u11 then
    apply_antidiag1 st ~bre:(r u01) ~bim:(i u01) ~cre:(r u10) ~cim:(i u10) q
  else if i u00 = 0.0 && i u01 = 0.0 && i u10 = 0.0 && i u11 = 0.0 then
    apply_real1q st ~u00:(r u00) ~u01:(r u01) ~u10:(r u10) ~u11:(r u11) q
  else
    apply_general1q st ~u00re:(r u00) ~u00im:(i u00) ~u01re:(r u01)
      ~u01im:(i u01) ~u10re:(r u10) ~u10im:(i u10) ~u11re:(r u11)
      ~u11im:(i u11) q

(* ------------------------------------------------------------------ *)
(* CX and SWAP                                                          *)

(* CX and SWAP exchange one amplitude pair, (i lor oa, i lor ob), per
   index [i] of the quarter of the space with both operand bits clear. *)
let swap_pairs st qa qb ~oa ~ob =
  check_qubit st qa;
  check_qubit st qb;
  if qa = qb then Sim_error.error ~op:"Statevector" "identical qubits (%d)" qa;
  let p_lo, p_hi = sort2 qa qb in
  if sharded st then sh_perm st ~ps:[| p_lo; p_hi |] ~oa ~ob
  else begin
    let quarter = dim st / 4 in
    let re = st.re.(0) and im = st.im.(0) in
    let checked = !checked_access_ref in
    Dpool.run ~size:quarter (fun lo hi ->
        (* monotone in [k]: the chunk's last index bounds every access *)
        if checked && hi > lo then begin
          let i = insert_zero (insert_zero (hi - 1) p_lo) p_hi in
          assert (i lor oa lor ob < Ba.dim re)
        end;
        for k = lo to hi - 1 do
          let i = insert_zero (insert_zero k p_lo) p_hi in
          let i0 = i lor oa and i1 = i lor ob in
          let tr = bget re i0 and ti = bget im i0 in
          bset re i0 (bget re i1);
          bset im i0 (bget im i1);
          bset re i1 tr;
          bset im i1 ti
        done)
  end

(* CNOT swaps the target pair where the control is set. *)
let apply_cx st c t = swap_pairs st c t ~oa:(1 lsl c) ~ob:((1 lsl c) lor (1 lsl t))
let apply_swap st a b = swap_pairs st a b ~oa:(1 lsl a) ~ob:(1 lsl b)

(* ------------------------------------------------------------------ *)
(* Cluster kernel                                                       *)

(* A fused cluster is a 2^m x 2^m unitary over m qubits (m up to
   {!Fusion}'s clustering bound). One pass over the amplitudes
   gathers each group's 2^m-amplitude subvector, applies the matrix,
   and scatters the result — one sweep of memory for a whole run of
   gates. The matrix is classified once per application: diagonal and
   monomial (permutation-with-phases) clusters — every Clifford+T run
   without an H, for example — cost a constant number of multiplies
   per amplitude regardless of m, and everything else runs as a sparse
   (CSR) matvec over the matrix's exact nonzeros, so the cost scales
   with the fused matrix's density rather than its dimension.

   Sub-state bit [j] of the matrix basis corresponds to [qs.(j)]
   (LSB first — note this is the opposite of {!apply_2q}'s operand
   order). Group bases start from a composed bit insertion and step by
   mask-increment, so every derived index is in bounds by construction;
   the sweeps use [Array1.unsafe_get/set] on that strength, and
   {!set_checked_access} turns the proof back into runtime
   assertions. *)

(* A monomial's cycle walk (new[r] = phase[r] * old[perm r]) as a
   straight-line move program over sub-state indices. The walk touches
   every sub-state at most once, on disjoint indices, so a sweep can run
   the fixed points' phases, save each cycle's head, shift the other
   elements one step along their cycles (in walk order, so each source
   is read before it is overwritten) and close each cycle from its
   saved head. Reordering across disjoint indices leaves each
   amplitude's arithmetic, and so the result bit for bit, that of the
   per-cycle walk, without a per-group pointer chase through cycle
   arrays. Unit-phase fixed points are dropped; [unit] marks a pure
   permutation, which moves amplitudes without arithmetic. *)
type moves = {
  unit : bool;
  fx : int array; (* fixed points with a non-unit phase *)
  fx_pr : float array;
  fx_pi : float array;
  hd : int array; (* cycle heads *)
  mv_dst : int array;
  mv_src : int array;
  mv_pr : float array;
  mv_pi : float array;
  cl : int array; (* each cycle's last element, fed from its head *)
  cl_pr : float array;
  cl_pi : float array;
}

type cluster_kind =
  | Cl_diag of int array * float array * float array
      (* the non-unit diagonal entries: sub-state indices, re/im *)
  | Cl_monomial of moves
  | Cl_sparse of int array * int array * float array * float array * pairs
      (* CSR over the exact nonzeros: row offsets (sub+1), column
         indices, then re/im weights. Fused Clifford+T matrices are
         mostly zeros (a CX-and-H product has 2-4 nonzeros per 32-wide
         row), so skipping them is the difference between a 2^m matvec
         and a near-constant number of multiplies per amplitude. *)

(* Rows of a 2-sparse unitary built from 2-qubit gate products come in
   partner pairs reading the same two columns in the same order. [pa.(k)]
   and [pb.(k)] are the k-th pair's rows, earlier row first, pairs in the
   order their later row appears. [None] unless every row has exactly two
   entries and every row has exactly one partner. *)
and pairs = (int array * int array) option

let pair_rows rows cols sub : pairs =
  let uniform2 = ref (sub mod 2 = 0) in
  Array.iteri (fun r off -> if off <> 2 * r then uniform2 := false) rows;
  if not !uniform2 then None
  else begin
    (* Every column of such a unitary holds exactly two entries, so two
       rows share a first column only when they are partners or when one
       of them has none. [first.(c)]: -2 unseen, a row waiting for its
       partner, or -1 once paired. *)
    let first = Array.make sub (-2) in
    let npair = sub / 2 in
    let pa = Array.make npair 0 and pb = Array.make npair 0 in
    let np = ref 0 and ok = ref true in
    for r = 0 to sub - 1 do
      let c0 = cols.(2 * r) in
      let prev = first.(c0) in
      if prev = -2 then first.(c0) <- r
      else if prev >= 0 && cols.((2 * prev) + 1) = cols.((2 * r) + 1) then begin
        pa.(!np) <- prev;
        pb.(!np) <- r;
        incr np;
        first.(c0) <- -1
      end
      else ok := false
    done;
    if !ok && !np = npair then Some (pa, pb) else None
  end

let compile_moves perm phr phi =
  let sub = Array.length perm in
  let fx = ref [] and hd = ref [] and mv = ref [] and cl = ref [] in
  let seen = Array.make sub false in
  for r0 = 0 to sub - 1 do
    if not seen.(r0) then begin
      seen.(r0) <- true;
      if perm.(r0) = r0 then begin
        if phr.(r0) <> 1.0 || phi.(r0) <> 0.0 then fx := r0 :: !fx
      end
      else begin
        hd := r0 :: !hd;
        let r = ref r0 in
        while perm.(!r) <> r0 do
          mv := (!r, perm.(!r)) :: !mv;
          r := perm.(!r);
          seen.(!r) <- true
        done;
        cl := !r :: !cl
      end
    end
  done;
  let arr l = Array.of_list (List.rev l) in
  let fx = arr !fx and hd = arr !hd and cl = arr !cl in
  let mv_dst = arr (List.map fst !mv) and mv_src = arr (List.map snd !mv) in
  let pr a = Array.map (fun r -> phr.(r)) a in
  let pi a = Array.map (fun r -> phi.(r)) a in
  {
    unit = Array.for_all (( = ) 1.0) phr && Array.for_all (( = ) 0.0) phi;
    fx; fx_pr = pr fx; fx_pi = pi fx; hd; mv_dst; mv_src;
    mv_pr = pr mv_dst; mv_pi = pi mv_dst; cl; cl_pr = pr cl; cl_pi = pi cl;
  }

let classify_cluster (u : Complex.t array array) sub =
  let zero (z : Complex.t) = z.Complex.re = 0.0 && z.Complex.im = 0.0 in
  let perm = Array.make sub 0 in
  let monomial =
    try
      for r = 0 to sub - 1 do
        let c = ref (-1) in
        for j = 0 to sub - 1 do
          if not (zero u.(r).(j)) then
            if !c < 0 then c := j else raise Exit
        done;
        if !c < 0 then raise Exit;
        perm.(r) <- !c
      done;
      let seen = Array.make sub false in
      Array.iter
        (fun c -> if seen.(c) then raise Exit else seen.(c) <- true)
        perm;
      true
    with Exit -> false
  in
  if monomial then begin
    let phr = Array.init sub (fun r -> u.(r).(perm.(r)).Complex.re) in
    let phi = Array.init sub (fun r -> u.(r).(perm.(r)).Complex.im) in
    if Array.for_all Fun.id (Array.mapi ( = ) perm) then begin
      let xs =
        List.filter
          (fun r -> phr.(r) <> 1.0 || phi.(r) <> 0.0)
          (List.init sub Fun.id)
        |> Array.of_list
      in
      Cl_diag (xs, Array.map (fun r -> phr.(r)) xs, Array.map (fun r -> phi.(r)) xs)
    end
    else Cl_monomial (compile_moves perm phr phi)
  end
  else begin
    let nnz = ref 0 in
    for r = 0 to sub - 1 do
      for c = 0 to sub - 1 do
        if not (zero u.(r).(c)) then incr nnz
      done
    done;
    let rows = Array.make (sub + 1) 0 in
    let cols = Array.make !nnz 0 in
    let wre = Array.make !nnz 0.0 and wim = Array.make !nnz 0.0 in
    let p = ref 0 in
    for r = 0 to sub - 1 do
      rows.(r) <- !p;
      for c = 0 to sub - 1 do
        if not (zero u.(r).(c)) then begin
          cols.(!p) <- c;
          wre.(!p) <- u.(r).(c).Complex.re;
          wim.(!p) <- u.(r).(c).Complex.im;
          incr p
        end
      done
    done;
    rows.(sub) <- !p;
    Cl_sparse (rows, cols, wre, wim, pair_rows rows cols sub)
  end

(* One pass over a flat amplitude slice for group indices [lo, hi).
   [ps] = cluster bit positions sorted ascending, [offs.(x)] = index
   offset of sub-state [x] relative to a group base. The group base for
   [lo] comes from composed bit insertion; successive bases step by
   mask-increment (O(1) per group instead of O(m)). *)
let cluster_sweep_flat ~checked ~kind ~ps ~offs ~sub (are : slice)
    (aim : slice) lo hi =
  let size = Ba.dim are in
  let msk = mask_of ps in
  let nmsk = lnot msk in
  match kind with
  | Cl_diag (xs, dre, die) ->
    let doff = Array.map (fun x -> offs.(x)) xs in
    let base = ref (enum_base ps lo) in
    for _ = lo to hi - 1 do
      let b = !base in
      (* every in-group index is b lor off with off subset of msk, so
         one per-group assert covers each unsafe access below *)
      if checked then assert (b >= 0 && b lor msk < size);
      for j = 0 to Array.length doff - 1 do
        let dr = Array.unsafe_get dre j and di = Array.unsafe_get die j in
        let i = b lor Array.unsafe_get doff j in
        let r = bget are i and q = bget aim i in
        bset are i ((dr *. r) -. (di *. q));
        bset aim i ((dr *. q) +. (di *. r))
      done;
      base := ((b lor msk) + 1) land nmsk
    done
  | Cl_monomial p ->
    let at a = Array.map (fun x -> offs.(x)) a in
    let fx_off = at p.fx and hd_off = at p.hd and cl_off = at p.cl in
    let mv_dst = at p.mv_dst and mv_src = at p.mv_src in
    let nfix = Array.length fx_off and nmv = Array.length mv_dst in
    let nwalk = Array.length hd_off in
    let tr = Array.make (max 1 nwalk) 0.0 in
    let ti = Array.make (max 1 nwalk) 0.0 in
    let base = ref (enum_base ps lo) in
    for _ = lo to hi - 1 do
      let b = !base in
      if checked then assert (b >= 0 && b lor msk < size);
      for f = 0 to nfix - 1 do
        let i = b lor Array.unsafe_get fx_off f in
        let pr = Array.unsafe_get p.fx_pr f and pi = Array.unsafe_get p.fx_pi f in
        let xr = bget are i and xi = bget aim i in
        bset are i ((pr *. xr) -. (pi *. xi));
        bset aim i ((pr *. xi) +. (pi *. xr))
      done;
      for w = 0 to nwalk - 1 do
        let i = b lor Array.unsafe_get hd_off w in
        Array.unsafe_set tr w (bget are i);
        Array.unsafe_set ti w (bget aim i)
      done;
      (* a pure permutation (CCX, CSWAP, fused X/CX/SWAP runs) moves
         amplitudes without arithmetic — bit for bit what the sharded
         sweep's whole-shard rotation does *)
      if p.unit then begin
        for j = 0 to nmv - 1 do
          let isrc = b lor Array.unsafe_get mv_src j in
          let idst = b lor Array.unsafe_get mv_dst j in
          bset are idst (bget are isrc);
          bset aim idst (bget aim isrc)
        done;
        for w = 0 to nwalk - 1 do
          let i = b lor Array.unsafe_get cl_off w in
          bset are i (Array.unsafe_get tr w);
          bset aim i (Array.unsafe_get ti w)
        done
      end
      else begin
        for j = 0 to nmv - 1 do
          let isrc = b lor Array.unsafe_get mv_src j in
          let xr = bget are isrc and xi = bget aim isrc in
          let pr = Array.unsafe_get p.mv_pr j and pi = Array.unsafe_get p.mv_pi j in
          let idst = b lor Array.unsafe_get mv_dst j in
          bset are idst ((pr *. xr) -. (pi *. xi));
          bset aim idst ((pr *. xi) +. (pi *. xr))
        done;
        for w = 0 to nwalk - 1 do
          let i = b lor Array.unsafe_get cl_off w in
          let pr = Array.unsafe_get p.cl_pr w and pi = Array.unsafe_get p.cl_pi w in
          let sr = Array.unsafe_get tr w and si = Array.unsafe_get ti w in
          bset are i ((pr *. sr) -. (pi *. si));
          bset aim i ((pr *. si) +. (pi *. sr))
        done
      end;
      base := ((b lor msk) + 1) land nmsk
    done
  | Cl_sparse (rows, cols, wre, wim, pairs) ->
    (* Clusters built from one Hadamard-like gate and any number of
       permutation/phase gates put exactly two entries in every row —
       the overwhelmingly common non-monomial shape on Clifford+T
       circuits — so that case gets a branch-free inner loop. The
       accumulation order matches the generic CSR walk (0.0 + first
       entry + second entry), keeping results bit-identical. *)
    let uniform2 = ref true in
    for r = 0 to sub do
      if Array.unsafe_get rows r <> 2 * r then uniform2 := false
    done;
    if !uniform2 then begin
      (* Blocked, row-outer schedule: a block of groups is gathered
         into L1-resident scratch, then each row's two weights and
         column indices are loaded ONCE and streamed across the whole
         block — instead of six weight/column loads per row per group.
         Writes are disjoint and every amplitude's arithmetic (and
         accumulation order: 0.0 + first entry + second entry) is that
         of the per-group walk, so results stay bit-identical. The
         block never exceeds the chunk's group count, so a sweep over a
         small register allocates scratch for the groups it has. *)
      let blk = max 1 (min (2048 / sub) (hi - lo)) in
      let bases = Array.make blk 0 in
      let svr = Array.make (blk * sub) 0.0 in
      let svi = Array.make (blk * sub) 0.0 in
      (* Partner rows (see {!pairs}) share the scratch loads and the
         output-base load; the row-at-a-time scatter is the fallback. *)
      (* All-zero groups skip the matvec outright: U x 0 = 0, so the
         scatter would only rewrite zeros. Early sweeps of a circuit
         run on a mostly-unpopulated register and skip nearly every
         group; the detector costs one |v| accumulation per gathered
         value. A skipped group keeps the stored zeros' signs where
         the matvec could have flipped a zero's sign — invisible to
         probabilities and measurements, and the sharded sweep applies
         the identical per-group rule, so shard layouts stay
         bit-identical to each other. *)
      let skipg = Bytes.make blk '\000' in
      let base = ref (enum_base ps lo) in
      let g = ref lo in
      while !g < hi do
        let gb = min blk (hi - !g) in
        for gi = 0 to gb - 1 do
          let b = !base in
          if checked then assert (b >= 0 && b lor msk < size);
          Array.unsafe_set bases gi b;
          let sb = gi * sub in
          let acc = ref 0.0 in
          for x = 0 to sub - 1 do
            let i = b lor Array.unsafe_get offs x in
            let r = bget are i and q = bget aim i in
            Array.unsafe_set svr (sb + x) r;
            Array.unsafe_set svi (sb + x) q;
            acc := !acc +. Float.abs r +. Float.abs q
          done;
          Bytes.unsafe_set skipg gi (if !acc = 0.0 then '\001' else '\000');
          base := ((b lor msk) + 1) land nmsk
        done;
        (match pairs with
        | Some (pa, pb) ->
          for pr = 0 to Array.length pa - 1 do
            let ra = Array.unsafe_get pa pr and rb = Array.unsafe_get pb pr in
            let p = 2 * ra in
            let c0 = Array.unsafe_get cols p in
            let c1 = Array.unsafe_get cols (p + 1) in
            let ar0 = Array.unsafe_get wre p and ai0 = Array.unsafe_get wim p in
            let ar1 = Array.unsafe_get wre (p + 1)
            and ai1 = Array.unsafe_get wim (p + 1) in
            let q = 2 * rb in
            let br0 = Array.unsafe_get wre q and bi0 = Array.unsafe_get wim q in
            let br1 = Array.unsafe_get wre (q + 1)
            and bi1 = Array.unsafe_get wim (q + 1) in
            let oa = Array.unsafe_get offs ra
            and ob = Array.unsafe_get offs rb in
            let sb = ref 0 in
            for gi = 0 to gb - 1 do
              let s = !sb in
              if Bytes.unsafe_get skipg gi = '\000' then begin
              let xr0 = Array.unsafe_get svr (s + c0)
              and xi0 = Array.unsafe_get svi (s + c0) in
              let xr1 = Array.unsafe_get svr (s + c1)
              and xi1 = Array.unsafe_get svi (s + c1) in
              let b = Array.unsafe_get bases gi in
              let sra =
                0.0 +. ((ar0 *. xr0) -. (ai0 *. xi0))
                +. ((ar1 *. xr1) -. (ai1 *. xi1))
              in
              let sia =
                0.0 +. ((ar0 *. xi0) +. (ai0 *. xr0))
                +. ((ar1 *. xi1) +. (ai1 *. xr1))
              in
              let srb =
                0.0 +. ((br0 *. xr0) -. (bi0 *. xi0))
                +. ((br1 *. xr1) -. (bi1 *. xi1))
              in
              let sib =
                0.0 +. ((br0 *. xi0) +. (bi0 *. xr0))
                +. ((br1 *. xi1) +. (bi1 *. xr1))
              in
              let ia = b lor oa in
              bset are ia sra;
              bset aim ia sia;
              let ib = b lor ob in
              bset are ib srb;
              bset aim ib sib
              end;
              sb := s + sub
            done
          done
        | None ->
          for row = 0 to sub - 1 do
            let p = 2 * row in
            let wr0 = Array.unsafe_get wre p
            and wi0 = Array.unsafe_get wim p in
            let c0 = Array.unsafe_get cols p in
            let wr1 = Array.unsafe_get wre (p + 1)
            and wi1 = Array.unsafe_get wim (p + 1) in
            let c1 = Array.unsafe_get cols (p + 1) in
            let orow = Array.unsafe_get offs row in
            let sb = ref 0 in
            for gi = 0 to gb - 1 do
              let s = !sb in
              if Bytes.unsafe_get skipg gi = '\000' then begin
                let xr0 = Array.unsafe_get svr (s + c0)
                and xi0 = Array.unsafe_get svi (s + c0) in
                let xr1 = Array.unsafe_get svr (s + c1)
                and xi1 = Array.unsafe_get svi (s + c1) in
                let sr =
                  0.0 +. ((wr0 *. xr0) -. (wi0 *. xi0))
                  +. ((wr1 *. xr1) -. (wi1 *. xi1))
                in
                let si =
                  0.0 +. ((wr0 *. xi0) +. (wi0 *. xr0))
                  +. ((wr1 *. xi1) +. (wi1 *. xr1))
                in
                let i = Array.unsafe_get bases gi lor orow in
                bset are i sr;
                bset aim i si
              end;
              sb := s + sub
            done
          done);
        g := !g + gb
      done
    end
    else begin
      let vr = Array.make sub 0.0 and vi = Array.make sub 0.0 in
      let base = ref (enum_base ps lo) in
      for _ = lo to hi - 1 do
        let b = !base in
        if checked then assert (b >= 0 && b lor msk < size);
        let acc = ref 0.0 in
        for x = 0 to sub - 1 do
          let i = b lor Array.unsafe_get offs x in
          let r = bget are i and q = bget aim i in
          Array.unsafe_set vr x r;
          Array.unsafe_set vi x q;
          acc := !acc +. Float.abs r +. Float.abs q
        done;
        (* all-zero groups skip the matvec; same rule as the uniform2
           path and the sharded sweep *)
        if !acc <> 0.0 then
          for row = 0 to sub - 1 do
            let sr = ref 0.0 and si = ref 0.0 in
            for p = Array.unsafe_get rows row
                to Array.unsafe_get rows (row + 1) - 1
            do
              let wr = Array.unsafe_get wre p
              and wi = Array.unsafe_get wim p in
              let col = Array.unsafe_get cols p in
              let xr = Array.unsafe_get vr col
              and xi = Array.unsafe_get vi col in
              sr := !sr +. ((wr *. xr) -. (wi *. xi));
              si := !si +. ((wr *. xi) +. (wi *. xr))
            done;
            let i = b lor Array.unsafe_get offs row in
            bset are i !sr;
            bset aim i !si
          done;
        base := ((b lor msk) + 1) land nmsk
      done
    end

(* Stride-aware sharded cluster exchange: clusters with a bit at or
   above the shard boundary split their positions there — the high
   positions enumerate shard groups (one {!Dpool} task each), the
   sub-state slices of a group are pinned once, and the low positions
   enumerate in-shard offsets by mask-increment. Each amplitude gets
   the flat sweep's arithmetic exactly once per sweep, so the result is
   bit-identical to the flat enumeration. A pure permutation whose bits
   all sit at or above the boundary (CCX or CSWAP on high qubits)
   rotates slice references instead: O(1) per shard group. *)
let cluster_sweep_sharded st ~checked ~kind ~ps ~offs ~sub =
  let lb = st.lb in
  let lm = (1 lsl lb) - 1 in
  let lows, highs = split_low_high lb ps in
  let lmsk = mask_of lows in
  let nmsk = lnot lmsk in
  let inner = (1 lsl lb) lsr Array.length lows in
  let sdelta = Array.map (fun o -> o lsr lb) offs in
  let odelta = Array.map (fun o -> o land lm) offs in
  let res = st.re and ims = st.im in
  let ssize = 1 lsl lb in
  let sgroups = Array.length res lsr Array.length highs in
  match kind with
  | Cl_monomial p when Array.length lows = 0 && p.unit ->
    let sd a = Array.map (fun x -> sdelta.(x)) a in
    rotate_shards st highs ~hd:(sd p.hd) ~mv_dst:(sd p.mv_dst)
      ~mv_src:(sd p.mv_src) ~cl:(sd p.cl)
  | _ ->
  Dpool.run_tasks ~count:sgroups (fun g ->
      let sbase = enum_base highs g in
      let sre = Array.map (fun d -> res.(sbase lor d)) sdelta in
      let sim = Array.map (fun d -> ims.(sbase lor d)) sdelta in
      match kind with
      | Cl_diag (xs, dre, die) ->
        let o = ref 0 in
        for _ = 1 to inner do
          for j = 0 to Array.length xs - 1 do
            let x = Array.unsafe_get xs j in
            let dr = Array.unsafe_get dre j and di = Array.unsafe_get die j in
            let i = !o lor Array.unsafe_get odelta x in
            if checked then assert (i < ssize);
            let re = Array.unsafe_get sre x and im = Array.unsafe_get sim x in
            let r = bget re i and q = bget im i in
            bset re i ((dr *. r) -. (di *. q));
            bset im i ((dr *. q) +. (di *. r))
          done;
          o := ((!o lor lmsk) + 1) land nmsk
        done
      | Cl_monomial p ->
        (* the flat sweep's move program, each sub-state addressed as
           (slice, in-shard offset) *)
        let nwalk = Array.length p.hd in
        let tr = Array.make (max 1 nwalk) 0.0 in
        let ti = Array.make (max 1 nwalk) 0.0 in
        let o = ref 0 in
        for _ = 1 to inner do
          let o0 = !o in
          for f = 0 to Array.length p.fx - 1 do
            let x = Array.unsafe_get p.fx f in
            let i = o0 lor Array.unsafe_get odelta x in
            if checked then assert (i < ssize);
            let re = Array.unsafe_get sre x and im = Array.unsafe_get sim x in
            let pr = Array.unsafe_get p.fx_pr f and pi = Array.unsafe_get p.fx_pi f in
            let xr = bget re i and xi = bget im i in
            bset re i ((pr *. xr) -. (pi *. xi));
            bset im i ((pr *. xi) +. (pi *. xr))
          done;
          for w = 0 to nwalk - 1 do
            let x = Array.unsafe_get p.hd w in
            let i = o0 lor Array.unsafe_get odelta x in
            if checked then assert (i < ssize);
            Array.unsafe_set tr w (bget (Array.unsafe_get sre x) i);
            Array.unsafe_set ti w (bget (Array.unsafe_get sim x) i)
          done;
          for j = 0 to Array.length p.mv_dst - 1 do
            let s = Array.unsafe_get p.mv_src j and d = Array.unsafe_get p.mv_dst j in
            let is = o0 lor Array.unsafe_get odelta s in
            let id = o0 lor Array.unsafe_get odelta d in
            if checked then assert (is < ssize && id < ssize);
            let xr = bget (Array.unsafe_get sre s) is
            and xi = bget (Array.unsafe_get sim s) is in
            let re = Array.unsafe_get sre d and im = Array.unsafe_get sim d in
            if p.unit then begin
              bset re id xr;
              bset im id xi
            end
            else begin
              let pr = Array.unsafe_get p.mv_pr j and pi = Array.unsafe_get p.mv_pi j in
              bset re id ((pr *. xr) -. (pi *. xi));
              bset im id ((pr *. xi) +. (pi *. xr))
            end
          done;
          for w = 0 to nwalk - 1 do
            let x = Array.unsafe_get p.cl w in
            let i = o0 lor Array.unsafe_get odelta x in
            if checked then assert (i < ssize);
            let re = Array.unsafe_get sre x and im = Array.unsafe_get sim x in
            let sr = Array.unsafe_get tr w and si = Array.unsafe_get ti w in
            if p.unit then begin
              bset re i sr;
              bset im i si
            end
            else begin
              let pr = Array.unsafe_get p.cl_pr w and pi = Array.unsafe_get p.cl_pi w in
              bset re i ((pr *. sr) -. (pi *. si));
              bset im i ((pr *. si) +. (pi *. sr))
            end
          done;
          o := ((!o lor lmsk) + 1) land nmsk
        done
      | Cl_sparse (rows, cols, wre, wim, _) ->
        let vr = Array.make sub 0.0 and vi = Array.make sub 0.0 in
        let o = ref 0 in
        for _ = 1 to inner do
          let acc = ref 0.0 in
          for x = 0 to sub - 1 do
            let i = !o lor Array.unsafe_get odelta x in
            if checked then assert (i < ssize);
            let r = bget (Array.unsafe_get sre x) i
            and q = bget (Array.unsafe_get sim x) i in
            Array.unsafe_set vr x r;
            Array.unsafe_set vi x q;
            acc := !acc +. Float.abs r +. Float.abs q
          done;
          (* all-zero groups skip the matvec — the same per-group rule
             as the flat sweep, so every shard layout makes the same
             decision and the layouts stay bit-identical *)
          if !acc <> 0.0 then
            for row = 0 to sub - 1 do
              let sr = ref 0.0 and si = ref 0.0 in
              for p = Array.unsafe_get rows row
                  to Array.unsafe_get rows (row + 1) - 1 do
                let wr = Array.unsafe_get wre p
                and wi = Array.unsafe_get wim p in
                let col = Array.unsafe_get cols p in
                let xr = Array.unsafe_get vr col
                and xi = Array.unsafe_get vi col in
                sr := !sr +. ((wr *. xr) -. (wi *. xi));
                si := !si +. ((wr *. xi) +. (wi *. xr))
              done;
              let i = !o lor Array.unsafe_get odelta row in
              bset (Array.unsafe_get sre row) i !sr;
              bset (Array.unsafe_get sim row) i !si
            done;
          o := ((!o lor lmsk) + 1) land nmsk
        done)

(* Validates a sweep's operands; returns them sorted ascending. *)
let sweep_positions ~op st (qs : int array) =
  let m = Array.length qs in
  if m = 0 then Sim_error.error ~op "empty qubit set";
  if m > 8 then Sim_error.error ~op "cluster too large: %d qubits" m;
  Array.iter (check_qubit st) qs;
  let ps = Array.copy qs in
  Array.sort compare ps;
  for j = 0 to m - 2 do
    if ps.(j) = ps.(j + 1) then Sim_error.error ~op "duplicate qubit %d" ps.(j)
  done;
  ps

(* Sweeps a classified matrix over the qubits [qs] (matrix bit [j] <->
   [qs.(j)]), whose sorted copy is [ps]. *)
let sweep st kind (qs : int array) ps =
  let m = Array.length qs in
  let sub = 1 lsl m in
  let offs = Array.make sub 0 in
  for x = 0 to sub - 1 do
    let o = ref 0 in
    for j = 0 to m - 1 do
      if x land (1 lsl j) <> 0 then o := !o lor (1 lsl qs.(j))
    done;
    offs.(x) <- !o
  done;
  let checked = !checked_access_ref in
  if not (sharded st) then begin
    let groups = dim st lsr m in
    let are = st.re.(0) and aim = st.im.(0) in
    Dpool.run ~size:groups
      (cluster_sweep_flat ~checked ~kind ~ps ~offs ~sub are aim)
  end
  else if ps.(m - 1) < st.lb then begin
    (* all cluster bits below the shard boundary: every shard is an
       independent lb-qubit sub-register — run the flat sweep per
       shard, one task per shard across the pool *)
    let lgroups = 1 lsl (st.lb - m) in
    Dpool.run_tasks ~count:(shard_count st) (fun s ->
        cluster_sweep_flat ~checked ~kind ~ps ~offs ~sub st.re.(s)
          st.im.(s) 0 lgroups)
  end
  else cluster_sweep_sharded st ~checked ~kind ~ps ~offs ~sub

let apply_cluster st (u : Complex.t array array) (qs : int array) =
  let op = "Statevector.apply_cluster" in
  let ps = sweep_positions ~op st qs in
  let m = Array.length qs in
  let sub = 1 lsl m in
  if Array.length u <> sub then
    Sim_error.error ~op "%d-qubit cluster needs a %dx%d matrix, got %dx%d" m
      sub sub (Array.length u) (Array.length u);
  sweep st (classify_cluster u sub) qs ps

(* apply_2q's first operand is the most significant matrix bit; the
   sweep's convention is least significant first. *)
let apply_2q st (u : Complex.t array array) qa qb =
  let qs = [| qb; qa |] in
  sweep st (classify_cluster u 4) qs
    (sweep_positions ~op:"Statevector.apply_2q" st qs)

(* The fixed multi-qubit gates' kinds, classified once at module
   initialisation; sweeps only read them, so Domains share them. The
   2-qubit ones are {!Gate.matrix_2q}'s (operands [a; b] sweep as
   [| b; a |]); the 3-qubit permutations take their operands in order,
   bit 0 first. *)
let kind_2q g = classify_cluster (Gate.matrix_2q g) 4

let cy_kind, cz_kind, ch_kind = (kind_2q Gate.Cy, kind_2q Gate.Cz, kind_2q Gate.Ch)

let perm3_kind f =
  classify_cluster
    (Array.init 8 (fun r ->
         Array.init 8 (fun c -> if f c = r then Complex.one else Complex.zero)))
    8

(* CCX [c1; c2; t]: flip bit 2 where bits 0 and 1 are set. *)
let ccx_kind = perm3_kind (fun x -> if x land 3 = 3 then x lxor 4 else x)

(* CSWAP [c; a; b]: exchange bits 1 and 2 where bit 0 is set. *)
let cswap_kind =
  perm3_kind (fun x ->
      if x land 1 = 1 && (x lsr 1) land 1 <> (x lsr 2) land 1 then x lxor 6
      else x)

(* ------------------------------------------------------------------ *)
(* Gate dispatch                                                        *)

let expi_pair t = (cos t, sin t)

let sweep_gate st (g : Gate.t) qs =
  let kind =
    match g with
    | Gate.Cy -> cy_kind
    | Gate.Cz -> cz_kind
    | Gate.Ch -> ch_kind
    | Gate.Ccx -> ccx_kind
    | Gate.Cswap -> cswap_kind
    | _ -> kind_2q g
  in
  sweep st kind qs (sweep_positions ~op:"Statevector.apply" st qs)

let apply st (g : Gate.t) qubits =
  match g, qubits with
  | Gate.I, [ q ] -> check_qubit st q
  | Gate.X, [ q ] -> apply_x st q
  | Gate.Y, [ q ] -> apply_y st q
  | Gate.Z, [ q ] -> apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re:(-1.0) ~d1im:0.0 q
  | Gate.S, [ q ] -> apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re:0.0 ~d1im:1.0 q
  | Gate.Sdg, [ q ] ->
    apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re:0.0 ~d1im:(-1.0) q
  | Gate.T, [ q ] ->
    let d1re, d1im = expi_pair (Float.pi /. 4.0) in
    apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re ~d1im q
  | Gate.Tdg, [ q ] ->
    let d1re, d1im = expi_pair (-.Float.pi /. 4.0) in
    apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re ~d1im q
  | Gate.P t, [ q ] ->
    let d1re, d1im = expi_pair t in
    apply_diag1 st ~d0re:1.0 ~d0im:0.0 ~d1re ~d1im q
  | Gate.Rz t, [ q ] ->
    let d0re, d0im = expi_pair (-.t /. 2.0) in
    let d1re, d1im = expi_pair (t /. 2.0) in
    apply_diag1 st ~d0re ~d0im ~d1re ~d1im q
  | Gate.H, [ q ] ->
    let s = 1.0 /. sqrt 2.0 in
    apply_real1q st ~u00:s ~u01:s ~u10:s ~u11:(-.s) q
  | Gate.Ry t, [ q ] ->
    let ct = cos (t /. 2.0) and stn = sin (t /. 2.0) in
    apply_real1q st ~u00:ct ~u01:(-.stn) ~u10:stn ~u11:ct q
  | (Gate.Sx | Gate.Sxdg | Gate.Rx _ | Gate.U _), [ q ] ->
    apply_1q st (Gate.matrix_1q g) q
  | Gate.Cx, [ c; t ] -> apply_cx st c t
  | Gate.Swap, [ a; b ] -> apply_swap st a b
  | ( ( Gate.Cy | Gate.Cz | Gate.Ch | Gate.Cp _ | Gate.Crz _ | Gate.Crx _
      | Gate.Cry _ | Gate.Cu _ ),
      [ a; b ] ) ->
    sweep_gate st g [| b; a |]
  | (Gate.Ccx | Gate.Cswap), [ a; b; c ] -> sweep_gate st g [| a; b; c |]
  | g, qs ->
    Sim_error.error ~op:"Statevector.apply" "%s expects %d qubits, got %d"
      (Gate.name g) (Gate.num_qubits g) (List.length qs)

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)

(* Sums only the bit-set half of the index space; the result is clamped
   to [0, 1] so accumulated rounding on long circuits cannot leak an
   out-of-range probability into sampling or collapse. *)
let prob_one st q =
  check_qubit st q;
  let bit = 1 lsl q in
  let half = dim st / 2 in
  let sum =
    if sharded st then begin
      (* same enumeration and chunking as the flat branch, so the
         partial sums combine in the identical order: the result is bit
         for bit the same under either layout *)
      let lb = st.lb in
      let lm = (1 lsl lb) - 1 in
      let re = st.re and im = st.im in
      Dpool.reduce_float ~size:half (fun lo hi ->
          let acc = ref 0.0 in
          for k = lo to hi - 1 do
            let i1 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) lor bit in
            let r = re.(i1 lsr lb).{i1 land lm}
            and m = im.(i1 lsr lb).{i1 land lm} in
            acc := !acc +. (r *. r) +. (m *. m)
          done;
          !acc)
    end
    else begin
      let re = st.re.(0) and im = st.im.(0) in
      Dpool.reduce_float ~size:half (fun lo hi ->
          let acc = ref 0.0 in
          for k = lo to hi - 1 do
            let i1 = ((k lsr q) lsl (q + 1)) lor (k land (bit - 1)) lor bit in
            acc := !acc +. (re.{i1} *. re.{i1}) +. (im.{i1} *. im.{i1})
          done;
          !acc)
    end
  in
  Float.min 1.0 (Float.max 0.0 sum)

(* Projects onto [q] = [outcome] and renormalizes. The probability is
   clamped away from zero (and NaN) so that [1.0 /. sqrt prob] stays
   finite even when a numerically degenerate branch is collapsed —
   without the guard a denormal [prob] turns the whole register into
   infinities/NaNs. *)
let collapse st q outcome prob =
  let bit = 1 lsl q in
  let size = dim st in
  let prob = if Float.is_nan prob || prob < 1e-300 then 1e-300 else prob in
  let norm = 1.0 /. sqrt prob in
  if sharded st then begin
    let lb = st.lb in
    let lm = (1 lsl lb) - 1 in
    let res = st.re and ims = st.im in
    Dpool.run ~size (fun lo hi ->
        for i = lo to hi - 1 do
          let re = res.(i lsr lb) and im = ims.(i lsr lb) in
          let o = i land lm in
          let is_one = i land bit <> 0 in
          if is_one = outcome then begin
            re.{o} <- re.{o} *. norm;
            im.{o} <- im.{o} *. norm
          end
          else begin
            re.{o} <- 0.0;
            im.{o} <- 0.0
          end
        done)
  end
  else begin
    let re = st.re.(0) and im = st.im.(0) in
    Dpool.run ~size (fun lo hi ->
        for i = lo to hi - 1 do
          let is_one = i land bit <> 0 in
          if is_one = outcome then begin
            re.{i} <- re.{i} *. norm;
            im.{i} <- im.{i} *. norm
          end
          else begin
            re.{i} <- 0.0;
            im.{i} <- 0.0
          end
        done)
  end

let measure st q =
  let p1 = prob_one st q in
  let outcome = Rng.float st.rng < p1 in
  let prob = if outcome then p1 else 1.0 -. p1 in
  (* guard the numerically degenerate draw of a zero-probability branch *)
  let outcome, prob =
    if prob <= 0.0 then (not outcome, 1.0 -. prob) else (outcome, prob)
  in
  collapse st q outcome prob;
  outcome

let reset st q =
  let one = measure st q in
  if one then apply st Gate.X [ q ]

(* Z-expectation value of qubit [q] without collapsing. *)
let expectation_z st q = 1.0 -. (2.0 *. prob_one st q)

(* ------------------------------------------------------------------ *)
(* Whole-circuit execution                                              *)

let cond_holds clbits (cond : Circuit.cond option) =
  match cond with
  | None -> true
  | Some { cbits; value } ->
    let v =
      List.fold_left
        (fun (acc, k) c -> ((acc lor if clbits.(c) then 1 lsl k else 0), k + 1))
        (0, 0) cbits
      |> fst
    in
    v = value

let run_circuit ?(seed = 1) (c : Circuit.t) =
  let st = create ~seed c.Circuit.num_qubits in
  let clbits = Array.make (max c.Circuit.num_clbits 1) false in
  List.iter
    (fun (op : Circuit.op) ->
      if cond_holds clbits op.Circuit.cond then
        match op.Circuit.kind with
        | Circuit.Gate (g, qs) -> apply st g qs
        | Circuit.Measure (q, cl) -> clbits.(cl) <- measure st q
        | Circuit.Reset q -> reset st q
        | Circuit.Barrier _ -> ())
    c.Circuit.ops;
  (st, clbits)

(* Inner product <a|b>; |<a|b>|^2 = 1 iff the states coincide. *)
let inner_product a b =
  if a.n <> b.n then
    Sim_error.error ~op:"Statevector.inner_product" "size mismatch: %d <> %d"
      a.n b.n;
  let la = a.lb and lma = (1 lsl a.lb) - 1 in
  let lc = b.lb and lmb = (1 lsl b.lb) - 1 in
  let are = a.re and aim = a.im and bre = b.re and bim = b.im in
  let acc_re, acc_im =
    Dpool.reduce_float2 ~size:(dim a) (fun lo hi ->
        let sr = ref 0.0 and si = ref 0.0 in
        for i = lo to hi - 1 do
          (* conj(a) * b; the two states may be sharded differently *)
          let ar = are.(i lsr la).{i land lma}
          and ai = aim.(i lsr la).{i land lma} in
          let br = bre.(i lsr lc).{i land lmb}
          and bi = bim.(i lsr lc).{i land lmb} in
          sr := !sr +. (ar *. br) +. (ai *. bi);
          si := !si +. (ar *. bi) -. (ai *. br)
        done;
        (!sr, !si))
  in
  { Complex.re = acc_re; im = acc_im }

let fidelity a b = Complex.norm2 (inner_product a b)

(* ------------------------------------------------------------------ *)
(* Reference kernels                                                    *)

(* The seed's naive kernels: full 2^n scans, complex matrix multiply
   for every gate, single-threaded. They are the correctness oracle for
   the specialized/fused/clustered/sharded fast paths and the baseline
   the benchmarks measure speedups against. The only change from the
   seed is the two-level [shard.{offset}] addressing (for a flat state
   the shard index is always 0); every scan, matrix product and update
   is the seed's, element for element. *)
module Reference = struct
  (* plain bounds-checked accessors — oracle code, kept obviously safe
     rather than fast. Single-shard states (the common oracle case)
     index the one flat slice directly; only genuinely sharded states
     pay the two-level address split. *)
  let[@inline] rget st a i =
    if st.n <= st.lb then a.(0).{i}
    else a.(i lsr st.lb).{i land ((1 lsl st.lb) - 1)}

  let[@inline] rset st a i v =
    if st.n <= st.lb then a.(0).{i} <- v
    else a.(i lsr st.lb).{i land ((1 lsl st.lb) - 1)} <- v

  let apply_1q st (u : Complex.t array array) q =
    check_qubit st q;
    let bit = 1 lsl q in
    let size = dim st in
    let u00 = u.(0).(0) and u01 = u.(0).(1) and u10 = u.(1).(0) and u11 = u.(1).(1) in
    if st.n <= st.lb then begin
      (* single shard: the seed's original flat full scan, verbatim *)
      let re = st.re.(0) and im = st.im.(0) in
      let i = ref 0 in
      while !i < size do
        if !i land bit = 0 then begin
          let i0 = !i in
          let i1 = !i lor bit in
          let a_re = re.{i0} and a_im = im.{i0} in
          let b_re = re.{i1} and b_im = im.{i1} in
          re.{i0} <-
            (u00.Complex.re *. a_re) -. (u00.Complex.im *. a_im)
            +. (u01.Complex.re *. b_re) -. (u01.Complex.im *. b_im);
          im.{i0} <-
            (u00.Complex.re *. a_im) +. (u00.Complex.im *. a_re)
            +. (u01.Complex.re *. b_im) +. (u01.Complex.im *. b_re);
          re.{i1} <-
            (u10.Complex.re *. a_re) -. (u10.Complex.im *. a_im)
            +. (u11.Complex.re *. b_re) -. (u11.Complex.im *. b_im);
          im.{i1} <-
            (u10.Complex.re *. a_im) +. (u10.Complex.im *. a_re)
            +. (u11.Complex.re *. b_im) +. (u11.Complex.im *. b_re)
        end;
        incr i
      done
    end
    else begin
      let re = st.re and im = st.im in
      let i = ref 0 in
      while !i < size do
        if !i land bit = 0 then begin
          let i0 = !i in
          let i1 = !i lor bit in
          let a_re = rget st re i0 and a_im = rget st im i0 in
          let b_re = rget st re i1 and b_im = rget st im i1 in
          rset st re i0
            ((u00.Complex.re *. a_re) -. (u00.Complex.im *. a_im)
            +. (u01.Complex.re *. b_re) -. (u01.Complex.im *. b_im));
          rset st im i0
            ((u00.Complex.re *. a_im) +. (u00.Complex.im *. a_re)
            +. (u01.Complex.re *. b_im) +. (u01.Complex.im *. b_re));
          rset st re i1
            ((u10.Complex.re *. a_re) -. (u10.Complex.im *. a_im)
            +. (u11.Complex.re *. b_re) -. (u11.Complex.im *. b_im));
          rset st im i1
            ((u10.Complex.re *. a_im) +. (u10.Complex.im *. a_re)
            +. (u11.Complex.re *. b_im) +. (u11.Complex.im *. b_re))
        end;
        incr i
      done
    end

  let apply_2q st (u : Complex.t array array) qa qb =
    check_qubit st qa;
    check_qubit st qb;
    if qa = qb then
      Sim_error.error ~op:"Statevector.apply_2q" "identical qubits";
    let ba = 1 lsl qa and bb = 1 lsl qb in
    let size = dim st in
    let tmp_re = Array.make 4 0.0 and tmp_im = Array.make 4 0.0 in
    let idx = Array.make 4 0 in
    if st.n <= st.lb then begin
      (* single shard: the seed's original flat full scan, verbatim *)
      let re = st.re.(0) and im = st.im.(0) in
      let i = ref 0 in
      while !i < size do
        if !i land ba = 0 && !i land bb = 0 then begin
          idx.(0) <- !i;
          idx.(1) <- !i lor bb;
          idx.(2) <- !i lor ba;
          idx.(3) <- !i lor ba lor bb;
          for k = 0 to 3 do
            let sr = ref 0.0 and si = ref 0.0 in
            for l = 0 to 3 do
              let m = u.(k).(l) in
              let vr = re.{idx.(l)} and vi = im.{idx.(l)} in
              sr := !sr +. ((m.Complex.re *. vr) -. (m.Complex.im *. vi));
              si := !si +. ((m.Complex.re *. vi) +. (m.Complex.im *. vr))
            done;
            tmp_re.(k) <- !sr;
            tmp_im.(k) <- !si
          done;
          for k = 0 to 3 do
            re.{idx.(k)} <- tmp_re.(k);
            im.{idx.(k)} <- tmp_im.(k)
          done
        end;
        incr i
      done
    end
    else begin
      let re = st.re and im = st.im in
      let i = ref 0 in
      while !i < size do
        if !i land ba = 0 && !i land bb = 0 then begin
          idx.(0) <- !i;
          idx.(1) <- !i lor bb;
          idx.(2) <- !i lor ba;
          idx.(3) <- !i lor ba lor bb;
          for k = 0 to 3 do
            let sr = ref 0.0 and si = ref 0.0 in
            for l = 0 to 3 do
              let m = u.(k).(l) in
              let vr = rget st re idx.(l) and vi = rget st im idx.(l) in
              sr := !sr +. ((m.Complex.re *. vr) -. (m.Complex.im *. vi));
              si := !si +. ((m.Complex.re *. vi) +. (m.Complex.im *. vr))
            done;
            tmp_re.(k) <- !sr;
            tmp_im.(k) <- !si
          done;
          for k = 0 to 3 do
            rset st re idx.(k) tmp_re.(k);
            rset st im idx.(k) tmp_im.(k)
          done
        end;
        incr i
      done
    end

  let apply_ccx st c1 c2 tgt =
    check_qubit st c1;
    check_qubit st c2;
    check_qubit st tgt;
    let b1 = 1 lsl c1 and b2 = 1 lsl c2 and bt = 1 lsl tgt in
    let size = dim st in
    if st.n <= st.lb then begin
      (* single shard: index the flat slice directly instead of paying
         the two-level address split on every access *)
      let re = st.re.(0) and im = st.im.(0) in
      let i = ref 0 in
      while !i < size do
        if !i land b1 <> 0 && !i land b2 <> 0 && !i land bt = 0 then begin
          let j = !i lor bt in
          let tr = re.{!i} and ti = im.{!i} in
          re.{!i} <- re.{j};
          im.{!i} <- im.{j};
          re.{j} <- tr;
          im.{j} <- ti
        end;
        incr i
      done
    end
    else begin
      let re = st.re and im = st.im in
      let i = ref 0 in
      while !i < size do
        if !i land b1 <> 0 && !i land b2 <> 0 && !i land bt = 0 then begin
          let j = !i lor bt in
          let tr = rget st re !i and ti = rget st im !i in
          rset st re !i (rget st re j);
          rset st im !i (rget st im j);
          rset st re j tr;
          rset st im j ti
        end;
        incr i
      done
    end

  let apply_cswap st c a b =
    check_qubit st c;
    check_qubit st a;
    check_qubit st b;
    let bc = 1 lsl c and ba = 1 lsl a and bb = 1 lsl b in
    let size = dim st in
    if st.n <= st.lb then begin
      (* single shard: direct flat indexing, as in [apply_ccx] *)
      let re = st.re.(0) and im = st.im.(0) in
      let i = ref 0 in
      while !i < size do
        if !i land bc <> 0 && !i land ba <> 0 && !i land bb = 0 then begin
          let j = (!i lxor ba) lor bb in
          let tr = re.{!i} and ti = im.{!i} in
          re.{!i} <- re.{j};
          im.{!i} <- im.{j};
          re.{j} <- tr;
          im.{j} <- ti
        end;
        incr i
      done
    end
    else begin
      let re = st.re and im = st.im in
      let i = ref 0 in
      while !i < size do
        if !i land bc <> 0 && !i land ba <> 0 && !i land bb = 0 then begin
          let j = (!i lxor ba) lor bb in
          let tr = rget st re !i and ti = rget st im !i in
          rset st re !i (rget st re j);
          rset st im !i (rget st im j);
          rset st re j tr;
          rset st im j ti
        end;
        incr i
      done
    end

  let apply st (g : Gate.t) qubits =
    match Gate.num_qubits g, qubits with
    | 1, [ q ] -> apply_1q st (Gate.matrix_1q g) q
    | 2, [ a; b ] -> apply_2q st (Gate.matrix_2q g) a b
    | 3, [ a; b; c ] -> (
      match g with
      | Gate.Ccx -> apply_ccx st a b c
      | Gate.Cswap -> apply_cswap st a b c
      | _ -> assert false)
    | n, qs ->
      Sim_error.error ~op:"Statevector.Reference.apply"
        "%s expects %d qubits, got %d" (Gate.name g) n (List.length qs)

  let run_circuit ?(seed = 1) (c : Circuit.t) =
    let st = create ~seed c.Circuit.num_qubits in
    let clbits = Array.make (max c.Circuit.num_clbits 1) false in
    List.iter
      (fun (op : Circuit.op) ->
        if cond_holds clbits op.Circuit.cond then
          match op.Circuit.kind with
          | Circuit.Gate (g, qs) -> apply st g qs
          | Circuit.Measure (q, cl) -> clbits.(cl) <- measure st q
          | Circuit.Reset q ->
            let one = measure st q in
            if one then apply st Gate.X [ q ]
          | Circuit.Barrier _ -> ())
      c.Circuit.ops;
    (st, clbits)
end
