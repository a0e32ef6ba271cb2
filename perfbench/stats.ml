(* Sample summaries. A percentile is reported only when at least ten
   samples lie beyond it, so p50 needs 20 samples, p90 needs 100 and
   p99 needs 1000. *)

let min_samples p = int_of_float (Float.ceil ((10. /. (1. -. p)) -. 1e-9))

(* Nearest-rank percentile of an unsorted sample, or [None] when the
   sample is too small for the rule above. *)
let percentile p xs =
  let n = Array.length xs in
  if n < min_samples p then None
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    Some s.(max 0 (min (n - 1) (rank - 1)))
  end

(* Plain median, for small repeated measurements such as set-up. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
  end

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)
let ratio a b = if b = 0. then 0. else a /. b

(* A run is cut into windows and a statistic taken per window; the
   run reports the median over the windows where it is defined, so one
   disturbed stretch of a run cannot move the result. *)
let median_of_windows f windows =
  match List.filter_map f windows with
  | [] -> None
  | xs -> Some (median (Array.of_list xs))

(* Consecutive chunks of [size] elements; a short remainder joins the
   last chunk. *)
let chunks size xs =
  let n = Array.length xs in
  let k = max 1 (n / max 1 size) in
  List.init k (fun i ->
      let lo = i * size in
      let hi = if i = k - 1 then n else lo + size in
      Array.sub xs lo (max 0 (hi - lo)))
