(* Order statistics used by every figure the benchmark prints. *)

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Median with the two middle samples averaged on even counts, so a
   handful of repeated set-up timings reports their centre. *)
let median a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stat.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
