(* One analysis context per module version: the call graph, the
   interprocedural constant-address facts, the function effect summaries
   and the value tracks the summaries were computed on, each computed on
   first use and at most once, and read by every consumer. Nothing is
   invalidated: a pass that rewrites a module makes a new module value,
   which gets new facts.

   Domain rule: OCaml 5 forbids forcing one lazy from two Domains at
   once, so a [Facts.t] is owned by the call that built it or forced
   under a lock ({!Qruntime.Executor.Session} holds its lock). *)

open Llvm_ir

type t = {
  m : Ir_module.t;
  call_graph : Call_graph.t Lazy.t;
  const_facts : Const_addr.module_facts Lazy.t;
  summaries : (Summary.table * Summary.tracks) Lazy.t;
}

let of_module (m : Ir_module.t) : t =
  let call_graph = lazy (Call_graph.build m) in
  let const_facts = lazy (Const_addr.analyze_module (Lazy.force call_graph)) in
  let summaries =
    lazy (Summary.of_module (Lazy.force call_graph) (Lazy.force const_facts))
  in
  { m; call_graph; const_facts; summaries }

(* The same facts with no function summarized: every call to a defined
   function is unknown code, the view of the entry-point-only lint. The
   call graph and the constant-address facts stay shared with [t]. *)
let without_summaries (t : t) : t =
  { t with summaries = Lazy.from_val (Hashtbl.create 0, Hashtbl.create 0) }

let call_graph t = Lazy.force t.call_graph
let const_facts t = Lazy.force t.const_facts
let summaries t = fst (Lazy.force t.summaries)

(* [f]'s value track, resolving calls through the summaries: the one the
   summary engine kept, or a fresh one for a function it did not
   summarize (recursive, or not in this module version). *)
let track t (f : Func.t) : Value_track.t =
  let table, tracks = Lazy.force t.summaries in
  match Hashtbl.find_opt tracks f.Func.name with
  | Some (g, vt) when g == f -> vt
  | Some _ | None ->
    Value_track.of_func ~fresh_fns:(Summary.fresh_fns_of table) f
