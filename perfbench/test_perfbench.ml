(* The benchmark's own tests: the percentile rule, corpus determinism
   and the step-class classifier. *)

open Perfbench_core

let c re im = { Complex.re; im }
let z = c 0. 0.
let o = c 1. 0.

let percentile_rule () =
  let xs n = Array.init n float_of_int in
  Alcotest.(check (option (float 0.))) "p99 refused below 1000" None (Stats.percentile 0.99 (xs 999));
  Alcotest.(check bool) "p99 at 1000" true (Stats.percentile 0.99 (xs 1000) <> None);
  Alcotest.(check (option (float 0.))) "p90 refused below 100" None (Stats.percentile 0.9 (xs 99));
  Alcotest.(check (option (float 0.))) "p90 nearest rank" (Some 89.) (Stats.percentile 0.9 (xs 100));
  Alcotest.(check (option (float 0.))) "p50 refused below 20" None (Stats.percentile 0.5 (xs 19));
  Alcotest.(check (option (float 0.))) "p50 nearest rank" (Some 9.) (Stats.percentile 0.5 (xs 20))

let corpus_determinism () =
  let texts l = List.map (fun (p : Corpus.program) -> p.Corpus.text) l in
  Alcotest.(check (list string)) "wide" (texts (Corpus.wide ~seed:5)) (texts (Corpus.wide ~seed:5));
  Alcotest.(check (list string)) "deep" (texts (Corpus.deep ~seed:5)) (texts (Corpus.deep ~seed:5));
  Alcotest.(check bool) "seeds differ" true (texts (Corpus.deep ~seed:5) <> texts (Corpus.deep ~seed:6));
  let sched seed =
    Array.to_list
      (Array.map
         (fun (j : Serve_flow.job) -> (j.Serve_flow.tenant, j.Serve_flow.prog.Corpus.text, j.Serve_flow.job_seed, j.Serve_flow.due))
         (Serve_flow.schedule ~seed ~rate:100. ~seconds:2.))
  in
  Alcotest.(check bool) "serve schedule" true (sched 3 = sched 3)

let classifier () =
  let check name expect u =
    Alcotest.(check string) name (Classify.name expect) (Classify.name (Classify.of_matrix u))
  in
  check "diagonal" Classify.Diagonal [| [| o; z |]; [| z; c 0. 1. |] |];
  check "monomial" Classify.Monomial [| [| z; o |]; [| c 0. 1.; z |] |];
  let h = 1. /. Float.sqrt 2. in
  (* CX . (H (x) I): two nonzeros per row *)
  check "two per row" Classify.Sparse
    [|
      [| c h 0.; z; c h 0.; z |];
      [| z; c h 0.; z; c h 0. |];
      [| z; c h 0.; z; c (-.h) 0. |];
      [| c h 0.; z; c (-.h) 0.; z |];
    |];
  check "dense" Classify.Dense [| [| c h 0.; c h 0. |]; [| c h 0.; c (-.h) 0. |] |]

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "corpus determinism" `Quick corpus_determinism;
          Alcotest.test_case "step classifier" `Quick classifier;
        ] );
    ]
