(* Seeded program corpora. Every program is generated as QIR text plus
   the source circuit it encodes; the text is all the program under
   test sees, and the circuit is what the independent reference checks
   run on. The same seed gives byte-identical texts.

   Sizes are stratified (fixed per slot) and only the gate content is
   drawn from the seed, so per-program cost — and therefore every
   timing — depends on the seed only through the circuit content, not
   through a lucky or unlucky draw of sizes. *)

open Qcircuit

type program = {
  name : string;
  shape : string;
  text : string;
  circuit : Circuit.t;  (** source circuit; clbit [j] = histogram key char [j] *)
  shots : int;
  seed : int;  (** executor seed, fixed per program so repeats must agree *)
}

let measure_all (c : Circuit.t) =
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

let declares names =
  String.concat ""
    (List.map
       (fun (ret, name, args) ->
         Printf.sprintf "declare %s @__quantum__%s(%s)\n" ret name args)
       names)

(* A call chain of [funcs] helpers: each applies H or X to its qubit and
   forwards it down; the deepest one measures. Every interprocedural
   summary depends on the next, so whole-module lint pays the full
   propagation cost. *)
let chain ~funcs ~qubits =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (declares
       [
         ("ptr", "rt__qubit_allocate", "");
         ("void", "rt__qubit_release", "ptr");
         ("void", "qis__h__body", "ptr");
         ("void", "qis__x__body", "ptr");
         ("void", "qis__mz__body", "ptr, ptr");
       ]);
  for i = funcs - 1 downto 0 do
    Printf.bprintf b "\ndefine void @f%d(ptr %%q, ptr %%r) {\nentry:\n" i;
    Printf.bprintf b "  call void @__quantum__qis__%s__body(ptr %%q)\n"
      (if i mod 2 = 0 then "h" else "x");
    if i = funcs - 1 then
      Buffer.add_string b "  call void @__quantum__qis__mz__body(ptr %q, ptr %r)\n"
    else Printf.bprintf b "  call void @f%d(ptr %%q, ptr %%r)\n" (i + 1);
    Buffer.add_string b "  ret void\n}\n"
  done;
  Buffer.add_string b "\ndefine void @main() \"entry_point\" {\nentry:\n";
  for q = 0 to qubits - 1 do
    Printf.bprintf b "  %%q%d = call ptr @__quantum__rt__qubit_allocate()\n" q
  done;
  for q = 0 to qubits - 1 do
    Printf.bprintf b "  call void @f0(ptr %%q%d, ptr inttoptr (i64 %d to ptr))\n"
      q q
  done;
  for q = 0 to qubits - 1 do
    Printf.bprintf b "  call void @__quantum__rt__qubit_release(ptr %%q%d)\n" q
  done;
  Buffer.add_string b "  ret void\n}\n";
  let cb = Circuit.Build.create ~num_qubits:qubits ~num_clbits:qubits () in
  for q = 0 to qubits - 1 do
    for i = 0 to funcs - 1 do
      Circuit.Build.gate cb (if i mod 2 = 0 then Gate.H else Gate.X) [ q ]
    done;
    Circuit.Build.measure cb q q
  done;
  (Buffer.contents b, Circuit.Build.finish cb)

(* Every qubit address is recomputed through a [depth]-step arithmetic
   chain at each use, and each layer ends in a mid-circuit reset: the
   module is syntactically dynamic and batch-ineligible, but constant
   propagation proves every address, so the gate tape replays it. *)
let computed_address ~rng ~qubits ~layers ~depth =
  let b = Buffer.create 16384 in
  Buffer.add_string b
    (declares
       [
         ("void", "qis__h__body", "ptr");
         ("void", "qis__x__body", "ptr");
         ("void", "qis__t__body", "ptr");
         ("void", "qis__cnot__body", "ptr, ptr");
         ("void", "qis__reset__body", "ptr");
         ("void", "qis__mz__body", "ptr, ptr");
         ("void", "rt__result_record_output", "ptr, ptr");
       ]);
  Printf.bprintf b
    "\ndefine void @main() \"entry_point\" \"required_num_qubits\"=\"%d\" {\n\
     entry:\n"
    qubits;
  let cb = Circuit.Build.create ~num_qubits:qubits ~num_clbits:qubits () in
  let site = ref 0 in
  let ptr q =
    let id = !site in
    incr site;
    Printf.bprintf b "  %%c%d_0 = mul i64 %d, %d\n" id (q + 3) (id mod 7);
    for k = 1 to depth do
      let op = [| "add"; "xor"; "mul"; "and"; "or" |].(k mod 5) in
      Printf.bprintf b "  %%c%d_%d = %s i64 %%c%d_%d, %d\n" id k op id (k - 1)
        ((k * 5) + 1)
    done;
    Printf.bprintf b "  %%z%d = sub i64 %%c%d_%d, %%c%d_%d\n" id id depth id
      depth;
    Printf.bprintf b "  %%a%d = add i64 %%z%d, %d\n" id id q;
    Printf.bprintf b "  %%p%d = inttoptr i64 %%a%d to ptr\n" id id;
    Printf.sprintf "ptr %%p%d" id
  in
  let gate1 name g q =
    Printf.bprintf b "  call void @__quantum__qis__%s__body(%s)\n" name (ptr q);
    Circuit.Build.gate cb g [ q ]
  in
  for l = 0 to layers - 1 do
    for q = 0 to qubits - 1 do
      match Rng.int rng 3 with
      | 0 -> gate1 "h" Gate.H q
      | 1 -> gate1 "x" Gate.X q
      | _ -> gate1 "t" Gate.T q
    done;
    for q = 0 to qubits - 2 do
      let p0 = ptr q in
      let p1 = ptr (q + 1) in
      Printf.bprintf b "  call void @__quantum__qis__cnot__body(%s, %s)\n" p0 p1;
      Circuit.Build.gate cb Gate.Cx [ q; q + 1 ]
    done;
    let r = l mod qubits in
    Printf.bprintf b "  call void @__quantum__qis__reset__body(%s)\n" (ptr r);
    Circuit.Build.reset cb r
  done;
  for q = 0 to qubits - 1 do
    let pq = ptr q in
    let pr = ptr q in
    Printf.bprintf b "  call void @__quantum__qis__mz__body(%s, %s)\n" pq pr;
    Circuit.Build.measure cb q q
  done;
  for q = 0 to qubits - 1 do
    Printf.bprintf b
      "  call void @__quantum__rt__result_record_output(%s, ptr null)\n" (ptr q)
  done;
  Buffer.add_string b "  ret void\n}\n";
  (Buffer.contents b, Circuit.Build.finish cb)

(* A front-end style counted loop over qubits (the Ex. 4 shape): the
   induction variable lives in an alloca slot, each iteration applies
   H-T-H to qubit i and measures it into result i. *)
let for_loop ~trip =
  let text =
    Printf.sprintf
      {|declare void @__quantum__qis__h__body(ptr)
declare void @__quantum__qis__t__body(ptr)
declare void @__quantum__qis__mz__body(ptr, ptr)

define void @main() "entry_point" "required_num_qubits"="%d" {
entry:
  %%i = alloca i32, align 4
  store i32 0, ptr %%i, align 4
  br label %%for.header

for.header:
  %%1 = load i32, ptr %%i, align 4
  %%cond = icmp slt i32 %%1, %d
  br i1 %%cond, label %%body, label %%exit

body:
  %%2 = load i32, ptr %%i, align 4
  %%idx = sext i32 %%2 to i64
  %%qb = inttoptr i64 %%idx to ptr
  call void @__quantum__qis__h__body(ptr %%qb)
  call void @__quantum__qis__t__body(ptr %%qb)
  call void @__quantum__qis__h__body(ptr %%qb)
  call void @__quantum__qis__mz__body(ptr %%qb, ptr %%qb)
  %%3 = load i32, ptr %%i, align 4
  %%4 = add nsw i32 %%3, 1
  store i32 %%4, ptr %%i, align 4
  br label %%for.header

exit:
  ret void
}
|}
      trip trip
  in
  let cb = Circuit.Build.create ~num_qubits:trip ~num_clbits:trip () in
  for q = 0 to trip - 1 do
    List.iter (fun g -> Circuit.Build.gate cb g [ q ]) [ Gate.H; Gate.T; Gate.H ];
    Circuit.Build.measure cb q q
  done;
  (text, Circuit.Build.finish cb)

let of_circuit ?addressing c = (Qir.Qir_builder.to_string ?addressing c, c)

let program ~name ~shape ~shots ~seed (text, circuit) =
  { name; shape; text; circuit; shots; seed }

(* [run-wide]: static measurement-terminal Clifford+T circuits, one per
   register size from 16 to 18 qubits (1 to 4 MiB of amplitudes: from
   inside a 2 MiB L2 to beyond it) at 150, 225 and 300 gates, 1000
   shots each. *)
let wide ~seed =
  let rng = Rng.create (seed lxor 0x5eed) in
  List.concat_map
    (fun n ->
      List.map
        (fun gates ->
          let s = Rng.int rng 1_000_000 in
          program
            ~name:(Printf.sprintf "wide-%dq-%dg" n gates)
            ~shape:"random" ~shots:1000 ~seed:s
            (of_circuit
               (measure_all
                  (Generate.random ~seed:s ~parametric:false ~gates n))))
        [ 150; 225; 300 ])
    [ 16; 17; 18 ]

(* [run-deep]: small registers, heavy front end. Eight programs per
   shape; sizes and shot counts are fixed per slot, and the seed draws
   the circuit content. *)
let deep ~seed =
  let rng = Rng.create (seed lxor 0xdee9) in
  let shots i = [| 16; 100; 32; 64; 24; 80; 48; 40 |].(i) in
  let next () = Rng.int rng 1_000_000 in
  let chains =
    List.mapi
      (fun i funcs ->
        let s = next () in
        program
          ~name:(Printf.sprintf "chain-%df-%d" funcs i)
          ~shape:"chain" ~shots:(shots i) ~seed:s
          (chain ~funcs ~qubits:(2 + (i mod 3))))
      [ 16; 16; 32; 32; 64; 64; 128; 256 ]
  in
  let dynamic =
    List.init 8 (fun i ->
        let s = next () in
        let n = 5 + (i mod 4) in
        program
          ~name:(Printf.sprintf "dynamic-%dq-%d" n i)
          ~shape:"dynamic" ~shots:(shots i) ~seed:s
          (of_circuit ~addressing:`Dynamic
             (measure_all
                (Generate.random ~seed:s ~parametric:false
                   ~gates:(20 + (10 * i)) n))))
  in
  let computed =
    List.init 8 (fun i ->
        let s = next () in
        let sub = Rng.create s in
        program
          ~name:(Printf.sprintf "computed-%d" i)
          ~shape:"computed" ~shots:(shots i) ~seed:s
          (computed_address ~rng:sub ~qubits:(4 + (i mod 3))
             ~layers:(2 + (i mod 4)) ~depth:(4 + (2 * i))))
  in
  let loops =
    List.init 8 (fun i ->
        let s = next () in
        program
          ~name:(Printf.sprintf "loop-%d" i)
          ~shape:"loop" ~shots:(shots i) ~seed:s
          (for_loop ~trip:(1 + i)))
  in
  let feedback =
    List.init 8 (fun i ->
        let s = next () in
        program
          ~name:(Printf.sprintf "feedback-%d" i)
          ~shape:"feedback" ~shots:(shots i) ~seed:s
          (of_circuit
             (Generate.feedback_rounds ~rounds:(2 + i) (2 + (i mod 5)))))
  in
  chains @ dynamic @ computed @ loops @ feedback

(* The serve-* tenants' modules. *)
let hot_module () =
  of_circuit
    (measure_all (Generate.random ~seed:42 ~parametric:false ~gates:80 12))

let cold_module ~seed =
  of_circuit
    (measure_all
       (Generate.random ~seed ~parametric:false ~gates:30 (6 + (seed land 1))))

let reset_module ~seed =
  computed_address ~rng:(Rng.create seed) ~qubits:8 ~layers:3 ~depth:2

let feedback_module ~rounds = of_circuit (Generate.feedback_rounds ~rounds 3)

(* A seeded permutation, for the order programs are taken in. *)
let shuffle ~seed arr =
  let rng = Rng.create seed in
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
