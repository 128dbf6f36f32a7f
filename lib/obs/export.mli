(** Exporters over {!Trace.events} and {!Metrics.snapshot}.

    Both JSON formats are written through {!Json}, and every trace
    event is one {!Ring.chrome_event} whose ["args"] carry its
    ["span_id"] and ["parent"] span id.

    [chrome_json] emits the Chrome trace-event format (JSON object with
    a ["traceEvents"] array of ["ph":"X"] complete events and
    ["ph":"i"] instants, timestamps in microseconds) — load the file in
    Perfetto ({{:https://ui.perfetto.dev}ui.perfetto.dev}) or
    [chrome://tracing]. Each recording domain appears as its own track
    via [tid], with a thread-name metadata record.

    [jsonl] emits one self-describing JSON object per line: every trace
    event tagged ["type":"span"|"instant"], then every metric. Numbers
    print in the codec's shortest round-trip form, non-finite ones as
    strings ({!Json.of_float}), so each line parses. Suited to
    [jq]-style post-processing.

    [summary] is the human-readable metrics rendering
    ({!Metrics.render}). *)

val chrome_json : unit -> string
val jsonl : unit -> string
val summary : unit -> string

val write_chrome : path:string -> unit
val write_jsonl : path:string -> unit

val write : path:string -> unit
(** Chrome format, unless [path] ends in [.jsonl]. *)
