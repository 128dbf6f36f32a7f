(* Rolling SLO metrics: a time-windowed histogram/counter set built
   from N fixed-width buckets addressed by wall-clock epoch. Bucket
   [e mod n] belongs to epoch [e = now / bucket_ns]; an observation
   landing in a bucket tagged with a stale epoch first clears it, so
   old data ages out lazily with zero background work. A snapshot
   merges every bucket whose epoch is still inside the window.

   Each time bucket's durations go into a {!Loghist} (exact min/max,
   percentiles clamped to them), and a snapshot merges the live ones,
   so windowed percentiles carry the same <= sqrt(2) relative
   bucketing error as {!Metrics.Histogram}.

   The clock is injected ([now_ns] arguments) rather than read
   internally, which keeps the window algebra deterministic under
   test. *)

type outcome = Ok | Error | Timeout

type bucket = {
  mutable epoch : int;  (* -1 = never used *)
  hist : Loghist.t;
  mutable errors : int;
  mutable timeouts : int;
}

type t = {
  bucket_ns : int;
  nbuckets : int;
  lock : Mutex.t;
  buckets : bucket array;
}

let create ?(buckets = 6) ?(bucket_s = 10.0) () =
  if buckets < 1 then invalid_arg "Rolling.create: buckets must be >= 1";
  if not (bucket_s > 0.0) then invalid_arg "Rolling.create: bucket_s must be > 0";
  {
    bucket_ns = int_of_float (bucket_s *. 1e9);
    nbuckets = buckets;
    lock = Mutex.create ();
    buckets =
      Array.init buckets (fun _ -> { epoch = -1; hist = Loghist.create (); errors = 0; timeouts = 0 });
  }

let window_s t = float_of_int (t.nbuckets * t.bucket_ns) /. 1e9

let clear_bucket b epoch =
  Loghist.clear b.hist;
  b.errors <- 0;
  b.timeouts <- 0;
  b.epoch <- epoch

let observe t ~now_ns ~dur_s ~outcome =
  let epoch = now_ns / t.bucket_ns in
  Mutex.lock t.lock;
  let b = t.buckets.(epoch mod t.nbuckets) in
  if b.epoch <> epoch then clear_bucket b epoch;
  Loghist.observe b.hist dur_s;
  (match outcome with
  | Ok -> ()
  | Error -> b.errors <- b.errors + 1
  | Timeout -> b.timeouts <- b.timeouts + 1);
  Mutex.unlock t.lock

type snap = {
  count : int;
  errors : int;
  timeouts : int;
  rate_per_s : float;  (** completions per second over the full window *)
  mean_s : float;  (** [nan] when empty *)
  p50_s : float;
  p95_s : float;
  p99_s : float;
  max_s : float;
}

let snapshot t ~now_ns =
  let current = now_ns / t.bucket_ns in
  let oldest = current - t.nbuckets + 1 in
  let merged = Loghist.create () in
  let errors = ref 0 and timeouts = ref 0 in
  Mutex.lock t.lock;
  Array.iter
    (fun b ->
      if b.epoch >= oldest && b.epoch <= current then begin
        Loghist.merge ~into:merged b.hist;
        errors := !errors + b.errors;
        timeouts := !timeouts + b.timeouts
      end)
    t.buckets;
  Mutex.unlock t.lock;
  let count = Loghist.count merged in
  {
    count;
    errors = !errors;
    timeouts = !timeouts;
    rate_per_s = float_of_int count /. window_s t;
    mean_s = (if count = 0 then Float.nan else Loghist.sum merged /. float_of_int count);
    p50_s = Loghist.percentile merged 50.0;
    p95_s = Loghist.percentile merged 95.0;
    p99_s = Loghist.percentile merged 99.0;
    max_s = Loghist.max_value merged;
  }

let reset t =
  Mutex.lock t.lock;
  Array.iter (fun b -> clear_bucket b (-1)) t.buckets;
  Mutex.unlock t.lock
