(** Flight recorder: always-on fixed-size per-domain rings of the most
    recently completed spans.

    {!Trace} records nothing unless tracing is enabled; the ring is the
    opposite — it records every completed span (not instants) into a
    bounded ring regardless, so a failing or slow request leaves
    retroactive evidence. Overwrite is the contract: each domain keeps
    only its last {!capacity} spans.

    Recording costs one atomic fetch-and-add plus one array store; the
    only allocation on that path is the span record itself. Within a
    domain, concurrent systhreads claim slots with the atomic cursor;
    a racing slot write can drop one record, never corrupt the ring.

    Enabled by default; set [FTL_FLIGHT=0] to disable at startup (used
    by the A/A overhead bench). *)

type span = {
  name : string;
  cat : string;
  dom : int;  (** recording domain *)
  ts_ns : int;  (** start, ns since the trace epoch *)
  dur_ns : int;
  args : (string * string) list;
}

val capacity : int
(** Slots per domain (power of two). *)

val on : unit -> bool
(** One atomic load; safe from any domain. *)

val set_enabled : bool -> unit

val record : span -> unit
(** Store a completed span in the calling domain's ring, overwriting
    the oldest; a no-op while disabled. Callers normally go through
    {!Trace}, which feeds the ring from [end_span]/[complete]
    automatically. *)

val dump : ?last_n:int -> unit -> span list
(** Merge every domain's surviving spans, sorted by start time; with
    [last_n], only the most recent [n]. Concurrent recording during a
    dump may drop or duplicate a handful of in-flight records — dumps
    are diagnostics, not ledgers. *)

val dump_jsonl : ?last_n:int -> unit -> string
(** {!dump} rendered one Chrome-trace ["X"] event ({!chrome_event}) per
    line (JSONL); wrapping the lines in a JSON array yields a
    Perfetto-loadable trace. *)

val chrome_event :
  ?head:(string * Json.t) list ->
  name:string ->
  cat:string ->
  tid:int ->
  ts_ns:int ->
  ?dur_ns:int ->
  (string * string) list ->
  Json.t
(** One Chrome trace event, the single shape every obs exporter emits:
    a ["ph":"X"] complete event when [dur_ns] is given, else a
    thread-scoped ["ph":"i"] instant. Times print in microseconds, an
    empty [cat] as ["default"], [pid] is 0, the string pairs become
    ["args"], and [head] fields come first. *)

val rings : unit -> int
(** Number of rings allocated. A domain returns its ring when it exits
    and the next domain to record reuses it, so this is bounded by the
    peak number of live recording domains, however many the process
    has spawned. *)

val recorded : unit -> int
(** Number of spans currently held across all rings. *)

val reset : unit -> unit
(** Clear every ring (tests). Quiescent points only. *)
