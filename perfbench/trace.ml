(* In-memory spans for the traced run: name, start, end, parent and
   request id, recorded into a per-Domain buffer so recording never
   takes a lock, and written at the end as Chrome/Perfetto trace-event
   JSON. When tracing is off, [span] is a plain call. *)

let now = Qruntime.Resilience.Deadline.now

type span = {
  id : int;
  parent : int;  (** -1 at a root *)
  req : int;  (** request id; -1 outside any request *)
  name : string;
  tid : int;
  start : float;
  stop : float;
}

type buffer = {
  tid : int;
  mutable spans : span list;
  mutable stack : (int * int) list;  (** open spans: id, req *)
  mutable next : int;
}

let enabled = ref false
let registry_lock = Mutex.create ()
let registry : buffer list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_lock;
      let b =
        { tid = List.length !registry; spans = []; stack = []; next = 0 }
      in
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let fresh_id b =
  b.next <- b.next + 1;
  (b.next lsl 6) lor b.tid

(* Run [f] inside a span. The request id defaults to the enclosing
   span's. *)
let span ?req name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get key in
    let parent, preq = match b.stack with (p, r) :: _ -> (p, r) | [] -> (-1, -1) in
    let req = Option.value req ~default:preq in
    let id = fresh_id b in
    b.stack <- (id, req) :: b.stack;
    let start = now () in
    let finish () =
      let stop = now () in
      b.stack <- List.tl b.stack;
      b.spans <- { id; parent; req; name; tid = b.tid; start; stop } :: b.spans
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let all () = List.concat_map (fun b -> b.spans) !registry

let reset () = List.iter (fun b -> b.spans <- []; b.stack <- []) !registry

let dur s = s.stop -. s.start

(* Per span id: the summed duration of its children. Children of one
   span never overlap: they run on the span's own Domain, one after
   another. *)
let child_durations spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  fun id -> Option.value ~default:0. (Hashtbl.find_opt child id)

(* Self time per span name: each span's duration minus the part its
   children cover. *)
let self_times spans =
  let children = child_durations spans in
  let acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self = Float.max 0. (dur s -. children s.id) in
      Hashtbl.replace acc s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt acc s.name)))
    spans;
  acc

(* Per root span named [root]: the share of its wall time covered by
   its direct children. *)
let coverage ~root spans =
  let children = child_durations spans in
  List.filter_map
    (fun s ->
      if s.name = root && dur s > 0. then Some (Float.min 1. (children s.id /. dur s))
      else None)
    spans
  |> Array.of_list

let to_json spans =
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity spans in
  let open Qservice.Jsonx in
  let event s =
    Obj
      [
        ("name", Str s.name);
        ("ph", Str "X");
        ("pid", Num 1.);
        ("tid", Num (float_of_int s.tid));
        ("ts", Num ((s.start -. t0) *. 1e6));
        ("dur", Num (dur s *. 1e6));
        ( "args",
          Obj
            [
              ("id", Num (float_of_int s.id));
              ("parent", Num (float_of_int s.parent));
              ("req", Num (float_of_int s.req));
            ] );
      ]
  in
  to_string
    (Obj
       [
         ("displayTimeUnit", Str "ms");
         ("traceEvents", Arr (List.map event (List.sort (fun a b -> compare a.start b.start) spans)));
       ])
