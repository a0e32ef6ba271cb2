(* The pass framework: a pass transforms one function and reports whether
   it changed anything. Module-level passes (e.g. inlining) get the whole
   module. *)

open Llvm_ir

type func_pass = {
  name : string;
  run : Ir_module.t -> Func.t -> Func.t * bool;
}

type module_pass = { mname : string; mrun : Ir_module.t -> Ir_module.t * bool }

let of_func_pass (p : func_pass) =
  {
    mname = p.name;
    mrun =
      (fun m ->
        let changed = ref false in
        let m' =
          Ir_module.map_funcs m (fun f ->
              if Func.is_declaration f then f
              else begin
                let f', c = p.run m f in
                if c then changed := true;
                f'
              end)
        in
        (m', !changed));
  }

(* Applies the passes once, in order; reports whether any changed. *)
let run_once passes m =
  List.fold_left
    (fun (m, changed) p ->
      let m', c = p.mrun m in
      (m', changed || c))
    (m, false) passes

(* Repeats the whole sequence until a round changes nothing (or
   [max_rounds] is reached). *)
let run_until_fixpoint ?(max_rounds = 8) passes m =
  let rec go round m =
    if round >= max_rounds then m
    else
      match run_once passes m with
      | m, true -> go (round + 1) m
      | m, false -> m
  in
  go 0 m
