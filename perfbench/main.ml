(* perfbench — QIR text in, histogram out, measured end to end and layer
   by layer.

     perfbench --workload run-wide --seed 1 --seconds 10 --trace 0
     perfbench --workload all --seed 1 --seconds 10
     perfbench --emit-benchmark-json > BENCHMARK.json

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   adds a traced pass over the same inputs and reports the per-layer
   metrics, writing the spans as trace-event JSON. The last line of
   standard output is one JSON object: correct, attempted, failed and
   the metrics of the chosen mode. Records, traces and spot-check files
   go to .perfbench/ under the working directory. Exit code 1 on any
   failed program or job, wrong output or determinism failure; 2 on
   bad arguments. --workload all runs each workload and mode in a child
   process of its own. *)

open Perfbench_core

let out_dir = ".perfbench"

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1\n\
    \       perfbench --emit-benchmark-json";
  exit 2

(* ------------------------------------------------------------------ *)
(* The record stamp *)

let read_file path =
  try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
  with Sys_error _ -> None

(* The commit of the checkout, read from .git without running git (the
   benchmark reads nothing outside its working directory). *)
let commit () =
  match read_file ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read_file (Filename.concat ".git" r) with
    | Some c -> c
    | None -> (
      match read_file ".git/packed-refs" with
      | Some packed ->
        List.find_map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ c; name ] when name = r -> Some c
            | _ -> None)
          (String.split_on_char '\n' packed)
        |> Option.value ~default:"unknown"
      | None -> "unknown"))
  | Some c -> c
  | None -> "unknown"

let exe_digest () =
  try Digest.to_hex (Digest.file Sys.executable_name) with Sys_error _ -> "unknown"

let stamp ~workload ~seed ~seconds ~traced =
  let open Qservice.Jsonx in
  Obj
    [
      ("workload", Str workload);
      ("seed", Num (float_of_int seed));
      ("seconds", Num seconds);
      ("trace", Num (if traced then 1. else 0.));
      ("commit", Str (commit ()));
      ("benchmark_digest", Str (exe_digest ()));
      ("nproc", Num (float_of_int (Domain.recommended_domain_count ())));
      ("dpool_domains", Num (float_of_int (Qsim.Dpool.domains ())));
      ("ocaml", Str Sys.ocaml_version);
    ]

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json *)

let benchmark_json () =
  let open Qservice.Jsonx in
  Obj
    [
      ("command", Arr [ Str "bash"; Str "perfbench/run.sh" ]);
      ("paths", Arr [ Str "perfbench" ]);
      ("run_seconds", Num 30.);
      ( "workloads",
        Arr
          (List.map
             (fun (s : Workloads.spec) ->
               Obj [ ("name", Str s.Workloads.name); ("why", Str s.Workloads.why) ])
             (List.filter (fun (s : Workloads.spec) -> s.Workloads.gated) Workloads.specs)) );
      ( "end_to_end",
        Arr
          (List.map
             (fun (name, unit, better, bound) ->
               Obj
                 [
                   ("name", Str name);
                   ("unit", Str unit);
                   ("better", Str (Metrics.better_name better));
                   ("bound", Num bound);
                 ])
             Metrics.end_to_end) );
      ( "per_layer",
        Arr
          (List.map
             (fun (name, unit, better) ->
               Obj
                 [
                   ("name", Str name);
                   ("unit", Str unit);
                   ("better", Str (Metrics.better_name better));
                 ])
             Metrics.per_layer) );
    ]

(* ------------------------------------------------------------------ *)
(* Exact counts must repeat between runs of the same benchmark binary
   at the same seed and length, traced or not: the first run stores
   them, later runs compare. *)

let check_counts ~workload ~seed ~seconds counts =
  let path =
    Filename.concat out_dir
      (Printf.sprintf "counts-%s-seed%d-%gs-%s.json" workload seed seconds (exe_digest ()))
  in
  let open Qservice.Jsonx in
  let mine = Obj (List.map (fun (k, n) -> (k, Num (float_of_int n))) counts) in
  match read_file path with
  | Some prev when prev <> to_string mine ->
    [ ("counts", "exact counts differ from an earlier run of this binary at this seed and length: " ^ prev) ]
  | Some _ -> []
  | None ->
    Out_channel.with_open_text path (fun oc -> output_string oc (to_string mine));
    []

(* ------------------------------------------------------------------ *)

let print_metrics title rows =
  Printf.printf "  %s\n" title;
  List.iter
    (fun (name, (m : Metrics.value)) ->
      Printf.printf "    %-34s %16.6g %-6s%s\n" name m.Metrics.v (Metrics.unit_of name)
        (if m.Metrics.samples > 0 then Printf.sprintf "  (n=%d)" m.Metrics.samples else ""))
    rows

let metrics_fields rows =
  let open Qservice.Jsonx in
  List.map
    (fun (name, (m : Metrics.value)) ->
      (name, Obj [ ("value", Num m.Metrics.v); ("unit", Str (Metrics.unit_of name)) ]))
    rows

let record_json rows =
  let open Qservice.Jsonx in
  Obj
    (List.map
       (fun (name, (m : Metrics.value)) ->
         ( name,
           Obj
             [
               ("value", Num m.Metrics.v);
               ("unit", Str (Metrics.unit_of name));
               ("samples", Num (float_of_int m.Metrics.samples));
             ] ))
       rows)

(* One workload run: prints its table and writes its record; returns
   the verdict and the contract metrics of the chosen mode. *)
let run_one ~workload ~seed ~seconds ~traced =
  let spec = Option.get (Workloads.spec workload) in
  Trace.reset ();
  let o =
    match workload with
    | "run-wide" -> Workloads.run_workload ~kind:`Wide ~spec ~seed ~seconds ~traced ~dir:out_dir
    | "run-deep" -> Workloads.run_workload ~kind:`Deep ~spec ~seed ~seconds ~traced ~dir:out_dir
    | "serve-mixed" -> Workloads.serve_workload ~rate:Workloads.mixed_rate ~spec ~seed ~seconds ~traced
    | _ -> Workloads.serve_workload ~rate:Workloads.overload_rate ~spec ~seed ~seconds ~traced
  in
  let nondet = o.Workloads.nondeterministic @ check_counts ~workload ~seed ~seconds o.Workloads.counts in
  let failed = List.length o.Workloads.failures + List.length o.Workloads.wrong in
  let correct = failed = 0 && nondet = [] in
  Printf.printf "%s (seed %d, %.0f s, trace %d)\n" workload seed seconds (if traced then 1 else 0);
  Printf.printf "  stamp %s\n" (Qservice.Jsonx.to_string (stamp ~workload ~seed ~seconds ~traced));
  print_metrics "end to end (untraced)" (o.Workloads.e2e @ o.Workloads.extra);
  if traced then print_metrics "per layer (traced)" o.Workloads.layer;
  Printf.printf "  exact counts: %s\n"
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) o.Workloads.counts));
  List.iter (Printf.printf "  note: %s\n") o.Workloads.notes;
  let problems kind =
    List.iter (fun (what, msg) -> Printf.printf "  %s: %s: %s\n" kind what msg)
  in
  problems "FAILED" o.Workloads.failures;
  problems "WRONG OUTPUT" o.Workloads.wrong;
  problems "DETERMINISM FAILURE" nondet;
  let base = Printf.sprintf "%s-seed%d-trace%d" workload seed (if traced then 1 else 0) in
  let open Qservice.Jsonx in
  let record =
    Obj
      [
        ("stamp", stamp ~workload ~seed ~seconds ~traced);
        ("correct", Bool correct);
        ("attempted", Num (float_of_int o.Workloads.attempted));
        ("failed", Num (float_of_int failed));
        ("end_to_end", record_json o.Workloads.e2e);
        ("extra", record_json o.Workloads.extra);
        ("per_layer", record_json o.Workloads.layer);
        ("exact_counts", Obj (List.map (fun (k, n) -> (k, Num (float_of_int n))) o.Workloads.counts));
        ("notes", Arr (List.map (fun s -> Str s) o.Workloads.notes));
      ]
  in
  Out_channel.with_open_text (Filename.concat out_dir (base ^ ".json")) (fun oc ->
      output_string oc (to_string record));
  if traced then
    Out_channel.with_open_text (Filename.concat out_dir ("trace-" ^ base ^ ".json")) (fun oc ->
        output_string oc (Trace.to_json o.Workloads.spans));
  ( correct,
    o.Workloads.attempted,
    failed,
    metrics_fields (if traced then o.Workloads.layer else o.Workloads.e2e) )

(* One workload run in a child process of its own, so its peak RSS,
   heap and caches start fresh: its table passes through, and its result
   line is read back. *)
let run_child ~workload ~seed ~seconds ~traced =
  let args =
    [|
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  let result, table =
    match List.rev lines with last :: rest -> (last, List.rev rest) | [] -> ("", [])
  in
  List.iter print_endline table;
  let open Qservice.Jsonx in
  match (status, parse result) with
  | Unix.WEXITED (0 | 1), Ok r ->
    ( Option.value ~default:false (mem_bool "correct" r),
      Option.value ~default:0 (mem_int "attempted" r),
      Option.value ~default:0 (mem_int "failed" r),
      match member "metrics" r with Some (Obj fields) -> fields | _ -> [] )
  | _ ->
    Printf.printf "  FAILED: %s did not produce a result line\n" workload;
    (false, 0, 0, [])

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 10. and trace = ref 0 in
  let emit = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := Option.value ~default:(-1) (int_of_string_opt s); parse rest
    | "--seconds" :: s :: rest -> seconds := Option.value ~default:(-1.) (float_of_string_opt s); parse rest
    | "--trace" :: t :: rest -> trace := Option.value ~default:(-1) (int_of_string_opt t); parse rest
    | "--emit-benchmark-json" :: rest -> emit := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !emit then print_endline (Qservice.Jsonx.to_string (benchmark_json ()))
  else begin
    let names = List.map (fun (s : Workloads.spec) -> s.Workloads.name) Workloads.specs in
    if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
       || not (!workload = "all" || List.mem !workload names)
    then usage ();
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let results =
      if !workload = "all" then
        List.concat_map
          (fun w ->
            List.map
              (fun traced ->
                let c, a, f, ms = run_child ~workload:w ~seed:!seed ~seconds:!seconds ~traced in
                (c, a, f, List.map (fun (k, m) -> (w ^ ":" ^ k, m)) ms))
              [ false; true ])
          names
      else [ run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ]
    in
    let correct = List.for_all (fun (c, _, _, _) -> c) results in
    let attempted = List.fold_left (fun a (_, n, _, _) -> a + n) 0 results in
    let failed = List.fold_left (fun a (_, _, f, _) -> a + f) 0 results in
    let metrics = List.concat_map (fun (_, _, _, ms) -> ms) results in
    let open Qservice.Jsonx in
    print_endline
      (to_string
         (Obj
            [
              ("correct", Bool correct);
              ("attempted", Num (float_of_int attempted));
              ("failed", Num (float_of_int failed));
              ("metrics", Obj metrics);
            ]));
    exit (if correct then 0 else 1)
  end
