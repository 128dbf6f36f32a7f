(* Power-of-two buckets: bucket [i] for 1 <= i <= 70 covers
   [2^(i-41), 2^(i-40)), i.e. ~1e-12 .. ~1e9; bucket 0 is underflow
   (v <= 0 included), bucket 71 overflow. *)
let nbuckets = 72
let bias = 40

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
}

let create () =
  { counts = Array.make nbuckets 0; count = 0; sum = 0.0; min_v = infinity; max_v = neg_infinity }

let clear t =
  Array.fill t.counts 0 nbuckets 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min_v <- infinity;
  t.max_v <- neg_infinity

let bucket_of v =
  if not (v > 0.0) then 0
  else begin
    let _, e = Float.frexp v in
    let i = e + bias in
    if i < 1 then 0 else if i > nbuckets - 2 then nbuckets - 1 else i
  end

let lower i = Float.ldexp 1.0 (i - bias - 1)
let upper i = Float.ldexp 1.0 (i - bias)

let observe t v =
  let i = bucket_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let merge ~into t =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
  into.count <- into.count + t.count;
  into.sum <- into.sum +. t.sum;
  if t.min_v < into.min_v then into.min_v <- t.min_v;
  if t.max_v > into.max_v then into.max_v <- t.max_v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then Float.nan else t.min_v
let max_value t = if t.count = 0 then Float.nan else t.max_v

let percentile t p =
  if t.count = 0 then Float.nan
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.count)) in
      Int.max 1 (Int.min t.count r)
    in
    (* the extreme ranks are known exactly — don't approximate them
       with a bucket midpoint *)
    if rank = 1 then t.min_v
    else if rank = t.count then t.max_v
    else begin
      let i = ref 0 and seen = ref 0 in
      while !seen < rank && !i < nbuckets do
        seen := !seen + t.counts.(!i);
        if !seen < rank then incr i
      done;
      let repr =
        if !i = 0 then t.min_v
        else if !i = nbuckets - 1 then t.max_v
        else sqrt (lower !i *. upper !i)
      in
      Float.min t.max_v (Float.max t.min_v repr)
    end
  end

let buckets t =
  let out = ref [] in
  for i = nbuckets - 1 downto 0 do
    if t.counts.(i) > 0 then out := (lower i, upper i, t.counts.(i)) :: !out
  done;
  !out
