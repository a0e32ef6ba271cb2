(* Type signatures of the QIS/RT functions, used to emit declarations and
   to know which call operands are qubits, results or classical values. *)

open Llvm_ir

type arg_kind = Qubit | Result | Double_arg | Int_arg of Ty.t | Ptr_arg

type signature = { ret : Ty.t; args : arg_kind list }

let ty_of_kind = function
  | Qubit | Result | Ptr_arg -> Ty.Ptr
  | Double_arg -> Ty.Double
  | Int_arg ty -> ty

(* Gate functions: doubles first, then qubits. *)
let gate_sig ~doubles ~qubits =
  {
    ret = Ty.Void;
    args =
      List.init doubles (fun _ -> Double_arg)
      @ List.init qubits (fun _ -> Qubit);
  }

(* Every known QIS/RT function with its signature, resolved through one
   table built at module initialization. The table is never mutated
   afterwards, so lookups are safe from any Domain. *)
let table : (string, signature) Hashtbl.t =
  let open Names in
  let h = Hashtbl.create 64 in
  let add s names = List.iter (fun n -> Hashtbl.replace h n s) names in
  add (gate_sig ~doubles:0 ~qubits:1)
    [ qis "h"; qis "x"; qis "y"; qis "z"; qis "s"; qis "t"; qis_adj "s";
      qis_adj "t"; qis "sx"; qis "reset" ];
  add (gate_sig ~doubles:1 ~qubits:1) [ qis "rx"; qis "ry"; qis "rz" ];
  add (gate_sig ~doubles:0 ~qubits:2)
    [ qis "cnot"; qis "cz"; qis "cy"; qis "swap" ];
  add (gate_sig ~doubles:0 ~qubits:3) [ qis "ccx" ];
  add { ret = Ty.Void; args = [ Qubit; Result ] } [ qis_mz ];
  add { ret = Ty.Ptr; args = [ Qubit ] } [ qis_m ];
  add { ret = Ty.I1; args = [ Result ] } [ rt_read_result ];
  add { ret = Ty.Ptr; args = [] } [ rt_qubit_allocate ];
  add { ret = Ty.Ptr; args = [ Int_arg Ty.I64 ] } [ rt_qubit_allocate_array ];
  add { ret = Ty.Void; args = [ Qubit ] } [ rt_qubit_release ];
  add { ret = Ty.Void; args = [ Ptr_arg ] } [ rt_qubit_release_array ];
  add { ret = Ty.Ptr; args = [ Int_arg Ty.I32; Int_arg Ty.I64 ] }
    [ rt_array_create_1d ];
  add { ret = Ty.Ptr; args = [ Ptr_arg; Int_arg Ty.I64 ] }
    [ rt_array_get_element_ptr_1d ];
  add { ret = Ty.I64; args = [ Ptr_arg ] } [ rt_array_get_size_1d ];
  add { ret = Ty.Void; args = [ Ptr_arg; Int_arg Ty.I32 ] }
    [ rt_array_update_reference_count; rt_result_update_reference_count ];
  add { ret = Ty.Ptr; args = [] } [ rt_result_get_one; rt_result_get_zero ];
  add { ret = Ty.I1; args = [ Result; Result ] } [ rt_result_equal ];
  add { ret = Ty.Void; args = [ Result; Ptr_arg ] } [ rt_result_record_output ];
  add { ret = Ty.Void; args = [ Int_arg Ty.I64; Ptr_arg ] }
    [ rt_array_record_output ];
  add { ret = Ty.Void; args = [ Ptr_arg ] } [ rt_initialize; rt_message; rt_fail ];
  h

let find name : signature option = Hashtbl.find_opt table name

let declaration name =
  match find name with
  | Some s -> Func.declare name s.ret (List.map ty_of_kind s.args)
  | None -> invalid_arg ("Signatures.declaration: unknown QIR function " ^ name)

(* Declarations for every QIR function called in [m] but not yet present. *)
let add_missing_declarations (m : Ir_module.t) =
  let called = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      Func.iter_instrs f (fun (i : Instr.t) ->
          match i.Instr.op with
          | Instr.Call (_, callee, _) when Names.is_quantum callee ->
            Hashtbl.replace called callee ()
          | _ -> ()))
    m.Ir_module.funcs;
  Hashtbl.fold
    (fun name () m ->
      match Ir_module.find_func m name with
      | Some _ -> m
      | None -> (
        match find name with
        | Some _ ->
          { m with Ir_module.funcs = declaration name :: m.Ir_module.funcs }
        | None -> m))
    called m
