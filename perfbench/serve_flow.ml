(* The serve-* workloads: an open loop into Qservice.Service. The main
   Domain runs intern + submit on a seeded Poisson schedule, as
   qir-serve's reader threads do; one executor Domain runs run_once
   loops and idles 10 ms when the queue is empty, as qir-serve's
   executors do. Config is default_config plus the hot tenant's weight,
   so cost-fair scheduling (the default) stays as shipped. *)

open Qruntime

let now = Trace.now
let config = { Qservice.Service.default_config with tenant_weights = [ ("hot", 3) ] }

type job = {
  idx : int;
  tenant : string;
  prog : Corpus.program;  (** shared by all jobs of one module *)
  job_seed : int;
  due : float;  (** seconds after the loop starts *)
}

type outcome =
  | Pending
  | Done of { result : Executor.shots_result; tier : Executor.tier; wait : float; run : float }
  | Refused of { shed : bool }
  | Error_event of string

type state = {
  jobs : job array;
  outcome : outcome array;
  event_at : float array;  (** absolute time of the terminal event *)
  terminal : int Atomic.t;
  submit_start : float array;
  submit_s : float array;  (** intern + submit *)
}

(* The four tenants. [hot] resubmits one 12q/80g module; [cold] sends a
   fresh 6-7q module every job; [reset] cycles four 8q mid-circuit-reset
   modules (tape tier); [feedback] cycles four measurement-feedback
   modules (per-shot interpretation). *)
let prog ~name ~shots (text, circuit) =
  Corpus.program ~name ~shape:name ~shots ~seed:0 (text, circuit)

let hot_program () = prog ~name:"hot" ~shots:50 (Corpus.hot_module ())

let schedule ~seed ~rate ~seconds =
  let rng = Qcircuit.Rng.create (seed lxor 0x5e7e) in
  let hot = hot_program () in
  let resets =
    Array.init 4 (fun i ->
        prog ~name:(Printf.sprintf "reset-%d" i) ~shots:20
          (Corpus.reset_module ~seed:((seed * 4) + i)))
  in
  let feedbacks =
    Array.init 4 (fun i ->
        prog ~name:(Printf.sprintf "feedback-%d" i) ~shots:20
          (Corpus.feedback_module ~rounds:(3 + i)))
  in
  let jobs = ref [] in
  let t = ref 0. in
  let idx = ref 0 in
  let continue = ref true in
  while !continue do
    t := !t -. (Float.log (1. -. Qcircuit.Rng.float rng) /. rate);
    if !t >= seconds then continue := false
    else begin
      let u = Qcircuit.Rng.int rng 100 in
      let job_seed = 1 + Qcircuit.Rng.int rng 1_000_000 in
      let tenant, prog =
        if u < 50 then ("hot", hot)
        else if u < 70 then
          ( "cold",
            prog ~name:(Printf.sprintf "cold-%d" !idx) ~shots:10
              (Corpus.cold_module ~seed:job_seed) )
        else if u < 85 then ("reset", resets.(Qcircuit.Rng.int rng 4))
        else ("feedback", feedbacks.(Qcircuit.Rng.int rng 4))
      in
      jobs := { idx = !idx; tenant; prog; job_seed; due = !t } :: !jobs;
      incr idx
    end
  done;
  Array.of_list (List.rev !jobs)

let job_id j = "j" ^ string_of_int j.idx
let idx_of_id id = int_of_string (String.sub id 1 (String.length id - 1))

let make_state jobs =
  let n = Array.length jobs in
  {
    jobs;
    outcome = Array.make n Pending;
    event_at = Array.make n 0.;
    terminal = Atomic.make 0;
    submit_start = Array.make n 0.;
    submit_s = Array.make n 0.;
  }

(* The service calls [emit] with its lock held, so the writes below are
   serialized across the two Domains. *)
let emit st ev =
  let finish id o =
    let i = idx_of_id id in
    st.outcome.(i) <- o;
    st.event_at.(i) <- now ();
    Atomic.incr st.terminal
  in
  match ev with
  | Qservice.Service.Accepted _ | Qservice.Service.Progress _ -> ()
  | Qservice.Service.Rejected { id; shed; _ } -> finish id (Refused { shed })
  | Qservice.Service.Result { id; result; tier; wait_s; run_s; _ } ->
    finish id (Done { result; tier; wait = wait_s; run = run_s })
  | Qservice.Service.Failed { id; error; _ } ->
    finish id (Error_event (Qir_error.to_string error))

type executor = { domain : (float * float) Domain.t; stop : bool Atomic.t }

(* One executor Domain draining the shared queue; returns its busy and
   total seconds. *)
let start_executor svc =
  let stop = Atomic.make false in
  let domain =
    Domain.spawn (fun () ->
        let t0 = now () in
        let busy = ref 0. in
        while not (Atomic.get stop) do
          let s = now () in
          if Trace.span "qservice.run_once" (fun () -> Qservice.Service.run_once svc)
          then busy := !busy +. (now () -. s)
          else Unix.sleepf 0.01
        done;
        (!busy, now () -. t0))
  in
  { domain; stop }

let stop_executor ex =
  Atomic.set ex.stop true;
  Domain.join ex.domain

let intern_submit svc (j : job) =
  match
    Trace.span ~req:j.idx "qservice.intern" (fun () ->
        Qservice.Service.intern svc ~source:j.prog.Corpus.text)
  with
  | Error e -> failwith (Qir_error.to_string e)
  | Ok m ->
    Trace.span ~req:j.idx "qservice.admit" (fun () ->
        Qservice.Service.submit svc ~tenant:j.tenant ~id:(job_id j)
          ~shots:j.prog.Corpus.shots ~seed:j.job_seed m)

(* Set-up: create the service, queue one job of the hot module, start
   the executor Domain and wait until the job has warmed the module's
   caches. The job is queued first so the executor never starts idle
   (an idle executor sleeps 10 ms, which would make set-up bimodal). *)
let setup ~hot =
  let warm = make_state [| { idx = 0; tenant = "hot"; prog = hot; job_seed = 1; due = 0. } |] in
  let cell = ref (fun _ -> ()) in
  let svc = Qservice.Service.create ~config ~emit:(fun ev -> !cell ev) () in
  cell := emit warm;
  intern_submit svc warm.jobs.(0);
  let ex = start_executor svc in
  while Atomic.get warm.terminal < 1 do
    Unix.sleepf 0.0005
  done;
  (svc, ex, cell)

type run = {
  st : state;
  t_start : float;
  lag : float array;
  depth_max : int;
  busy : float;
  wall : float;
  stats : Qservice.Service.stats;
}

(* The open loop: submit each job at its due time, then wait for every
   job's terminal event. *)
let open_loop (svc, ex, cell) jobs =
  let st = make_state jobs in
  cell := emit st;
  let n = Array.length jobs in
  let lag = Array.make n 0. in
  let depth_max = ref 0 in
  let t_start = now () in
  Array.iter
    (fun j ->
      let due = t_start +. j.due in
      let rec wait () =
        let d = due -. now () in
        if d > 0.002 then (Unix.sleepf (d -. 0.001); wait ())
        else if d > 0. then wait ()
      in
      wait ();
      let s = now () in
      lag.(j.idx) <- s -. due;
      st.submit_start.(j.idx) <- s;
      intern_submit svc j;
      st.submit_s.(j.idx) <- now () -. s;
      depth_max := max !depth_max (Qservice.Service.queue_depth svc))
    jobs;
  (* a job without a terminal event a minute after the last arrival
     stays Pending and is reported as failed *)
  let give_up = now () +. 60. in
  while Atomic.get st.terminal < n && now () < give_up do
    Unix.sleepf 0.0005
  done;
  let busy, wall = stop_executor ex in
  {
    st;
    t_start;
    lag;
    depth_max = !depth_max;
    busy;
    wall;
    stats = Qservice.Service.stats svc;
  }

(* ------------------------------------------------------------------ *)
(* Checks, outside timing: every distinct module at least once (every
   cold job is its own module), plus a seeded sample of one job in five
   of the rest. *)

let check ~seed (r : run) =
  let rng = Qcircuit.Rng.create (seed lxor 0xc4ec) in
  let seen = Hashtbl.create 64 in
  let probs = Hashtbl.create 64 in
  let wrong = ref [] in
  let checked = ref 0 in
  Array.iteri
    (fun i (j : job) ->
      match r.st.outcome.(i) with
      | Done { result; _ } ->
        let first = not (Hashtbl.mem seen j.prog.Corpus.name) in
        Hashtbl.replace seen j.prog.Corpus.name ();
        if first || Qcircuit.Rng.int rng 5 = 0 then begin
          incr checked;
          let verdict =
            if result.Executor.batched then begin
              let p =
                match Hashtbl.find_opt probs j.prog.Corpus.name with
                | Some p -> p
                | None ->
                  let p = Check.exact_distribution j.prog.Corpus.circuit in
                  Hashtbl.replace probs j.prog.Corpus.name p;
                  p
              in
              Check.sampled ~probs:p result.Executor.histogram
            end
            else
              Check.replayed ~text:j.prog.Corpus.text ~seed:j.job_seed
                ~shots:j.prog.Corpus.shots result.Executor.histogram
          in
          match verdict with
          | Ok () -> ()
          | Error msg -> wrong := (job_id j ^ " (" ^ j.prog.Corpus.name ^ ")", msg) :: !wrong
        end
      | _ -> ())
    r.st.jobs;
  (!checked, List.rev !wrong)
