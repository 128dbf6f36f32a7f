(** Log-scale histogram accumulator shared by {!Metrics.Histogram} and
    each {!Rolling} time bucket.

    Power-of-two buckets cover ~1e-12 .. ~1e9 with under/overflow
    buckets (non-positive values land in underflow). Alongside the
    counts it keeps the exact sum, min and max, so percentiles clamp to
    really-observed values: interior ranks carry at most ~sqrt(2)
    relative error, and never leave [[min, max]].

    Not synchronized: owners hold their own lock. *)

type t

val create : unit -> t
val clear : t -> unit
val observe : t -> float -> unit

val merge : into:t -> t -> unit
(** Add every observation of the second histogram to [into]. *)

val count : t -> int
val sum : t -> float

val min_value : t -> float
(** [nan] when empty. *)

val max_value : t -> float
(** [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile h p] for [p] in [0..100]: nearest-rank over the
    buckets. The first and last ranks return the exact observed
    [min]/[max]; interior ranks return the geometric midpoint of the
    selected bucket clamped to [[min, max]]. [nan] when empty. *)

val buckets : t -> (float * float * int) list
(** Non-empty buckets as [(lower, upper, count)], ascending. *)
