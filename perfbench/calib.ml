(* A fixed unit of CPU and cache work, timed between programs to track
   the speed of the machine the benchmark runs on. It uses only the
   benchmark's own code. It does share the cores and caches with the
   program under test, which can evict the unit's 256 KiB array between
   samples; an untimed pass brings the array back into cache first, so
   what is timed is the unit alone on a warm cache. *)

let data = Array.init 32768 (fun i -> float_of_int (i land 1023) *. 1e-3)

let sweep ~rounds =
  let acc = ref 0. in
  for r = 1 to rounds do
    let k = float_of_int r in
    for i = 0 to Array.length data - 1 do
      acc := !acc +. (Array.unsafe_get data i *. k)
    done
  done;
  !acc

let work () =
  let acc = sweep ~rounds:8 in
  let h = ref 0 in
  for i = 1 to 200_000 do
    h := ((!h * 31) + i) land 0xffffff
  done;
  acc +. float_of_int !h

(* The unit's median time on the machine the benchmark was tuned on (2
   vCPUs, x86-64, OCaml 5.1.1). *)
let reference = 0.00078

(* Seconds one unit of work takes now. *)
let sample () =
  ignore (Sys.opaque_identity (sweep ~rounds:1));
  let t0 = Trace.now () in
  ignore (Sys.opaque_identity (work ()));
  Trace.now () -. t0
