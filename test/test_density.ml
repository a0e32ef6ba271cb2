(* Tests for the density-matrix simulator: agreement with the statevector
   on pure circuits, exact channel behaviour, and validation of the
   stochastic Noise trajectories against the exact channel. *)

open Qcircuit
open Qsim
open Oracle

let check = Alcotest.check
let bool_t = Alcotest.bool
let float_t = Alcotest.float 1e-9

let test_bell_density () =
  let st = Density.create 2 in
  Density.apply st Gate.H [ 0 ];
  Density.apply st Gate.Cx [ 0; 1 ];
  check float_t "p(00)" 0.5 (Density.probability st 0);
  check float_t "p(11)" 0.5 (Density.probability st 3);
  check float_t "trace" 1.0 (Density.trace st);
  check float_t "pure" 1.0 (Density.purity st);
  (* coherence present: off-diagonal <00|rho|11> = 1/2 *)
  check float_t "coherence" 0.5 (Density.entry st 0 3).Complex.re

let test_matches_statevector_on_pure_circuits () =
  List.iter
    (fun seed ->
      let c = Generate.random ~seed ~gates:40 3 in
      let sv, _ = Statevector.run_circuit c in
      let dm, _ = Density.run_circuit c in
      let p_sv = Statevector.probabilities sv in
      let p_dm = Density.probabilities dm in
      Array.iteri
        (fun i p ->
          check float_t (Printf.sprintf "seed %d p(%d)" seed i) p p_dm.(i))
        p_sv)
    [ 1; 7; 42 ]

let test_ccx_matches_statevector () =
  let c =
    Circuit.create ~num_qubits:3 ~num_clbits:0
      [
        Circuit.gate Gate.H [ 0 ]; Circuit.gate Gate.H [ 1 ];
        Circuit.gate Gate.Ccx [ 0; 1; 2 ]; Circuit.gate (Gate.Ry 0.4) [ 2 ];
      ]
  in
  let sv, _ = Statevector.run_circuit c in
  let dm, _ = Density.run_circuit c in
  Array.iteri
    (fun i p -> check float_t (Printf.sprintf "p(%d)" i) p (Density.probabilities dm).(i))
    (Statevector.probabilities sv)

let test_depolarize_fully_mixes () =
  (* p = 3/4 is the fully-depolarizing point for one qubit *)
  let st = Density.create 1 in
  Density.depolarize st 0 0.75;
  check float_t "p(0)" 0.5 (Density.probability st 0);
  check float_t "p(1)" 0.5 (Density.probability st 1);
  check float_t "purity 1/2" 0.5 (Density.purity st);
  check float_t "trace preserved" 1.0 (Density.trace st)

let test_depolarize_reduces_purity () =
  let st = Density.create 2 in
  Density.apply st Gate.H [ 0 ];
  Density.apply st Gate.Cx [ 0; 1 ];
  Density.depolarize st 0 0.1;
  let p = Density.purity st in
  check bool_t "purity dropped" true (p < 1.0);
  check bool_t "still fairly pure" true (p > 0.7);
  check float_t "trace preserved" 1.0 (Density.trace st)

let test_measurement_collapse () =
  let st = Density.create ~seed:5 2 in
  Density.apply st Gate.H [ 0 ];
  Density.apply st Gate.Cx [ 0; 1 ];
  let m0 = Density.measure st 0 in
  let m1 = Density.measure st 1 in
  check bool_t "correlated" true (m0 = m1);
  check float_t "pure after collapse" 1.0 (Density.purity st)

(* The stochastic trajectory model converges to the exact channel: the
   Z-expectation of the noisy state under trajectories matches the exact
   density evolution within sampling error. *)
let test_noise_trajectories_match_exact_channel () =
  let p1 = 0.05 and p2 = 0.08 in
  let c =
    Circuit.create ~num_qubits:2 ~num_clbits:0
      [
        Circuit.gate Gate.H [ 0 ]; Circuit.gate Gate.Cx [ 0; 1 ];
        Circuit.gate (Gate.Ry 0.9) [ 1 ]; Circuit.gate Gate.Cx [ 0; 1 ];
      ]
  in
  (* exact *)
  let dm, _ = Density.run_circuit ~noise:(p1, p2) c in
  let exact_q0 = Density.prob_one dm 0 and exact_q1 = Density.prob_one dm 1 in
  (* trajectories *)
  let trials = 3000 in
  let acc0 = ref 0.0 and acc1 = ref 0.0 in
  for k = 0 to trials - 1 do
    let t, _ =
      Noise.run_circuit ~seed:(1000 + k)
        ~params:{ Noise.p1; p2; p_readout = 0.0 }
        c
    in
    let sv = Noise.statevector t in
    acc0 := !acc0 +. Statevector.prob_one sv 0;
    acc1 := !acc1 +. Statevector.prob_one sv 1
  done;
  let traj_q0 = !acc0 /. float_of_int trials in
  let traj_q1 = !acc1 /. float_of_int trials in
  check bool_t
    (Printf.sprintf "q0: exact %.4f vs trajectories %.4f" exact_q0 traj_q0)
    true
    (Float.abs (exact_q0 -. traj_q0) < 0.02);
  check bool_t
    (Printf.sprintf "q1: exact %.4f vs trajectories %.4f" exact_q1 traj_q1)
    true
    (Float.abs (exact_q1 -. traj_q1) < 0.02)

let prop_trace_preserved =
  QCheck2.Test.make ~count:40 ~name:"trace stays 1 under gates and channels"
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 2 4))
    (fun (seed, n) ->
      let c = Generate.random ~seed ~gates:25 n in
      let dm, _ = Density.run_circuit ~noise:(0.02, 0.05) c in
      Float.abs (Density.trace dm -. 1.0) < 1e-9)

let props = List.map QCheck_alcotest.to_alcotest [ prop_trace_preserved ]

let suite =
  [
    Alcotest.test_case "Bell density matrix" `Quick test_bell_density;
    Alcotest.test_case "matches statevector (pure)" `Quick
      test_matches_statevector_on_pure_circuits;
    Alcotest.test_case "ccx via decomposition" `Quick
      test_ccx_matches_statevector;
    Alcotest.test_case "full depolarization" `Quick test_depolarize_fully_mixes;
    Alcotest.test_case "partial depolarization" `Quick
      test_depolarize_reduces_purity;
    Alcotest.test_case "measurement collapse" `Quick test_measurement_collapse;
    Alcotest.test_case "trajectories match exact channel" `Slow
      test_noise_trajectories_match_exact_channel;
  ]
  @ props
