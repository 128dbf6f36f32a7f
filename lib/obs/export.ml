let event_json ?head (e : Trace.event) =
  Ring.chrome_event ?head ~name:e.Trace.name ~cat:e.Trace.cat ~tid:e.Trace.tid ~ts_ns:e.Trace.ts_ns
    ?dur_ns:(match e.Trace.kind with Trace.Span -> Some e.Trace.dur_ns | Trace.Instant -> None)
    (("span_id", string_of_int e.Trace.id) :: ("parent", string_of_int e.Trace.parent) :: e.Trace.args)

let chrome_json () =
  let evs = Trace.events () in
  let thread_name tid =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "domain %d" tid)) ]);
      ]
  in
  let tids = List.sort_uniq Int.compare (List.map (fun e -> e.Trace.tid) evs) in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map thread_name tids @ List.map event_json evs));
         ("displayTimeUnit", Json.String "ns");
       ])
  ^ "\n"

let jsonl () =
  let event (e : Trace.event) =
    let kind = match e.Trace.kind with Trace.Span -> "span" | Trace.Instant -> "instant" in
    event_json ~head:[ ("type", Json.String kind) ] e
  in
  let metric (name, v) =
    let line kind fields = Json.Obj (("type", Json.String kind) :: ("name", Json.String name) :: fields) in
    match v with
    | Metrics.Counter_value n -> Some (line "counter" [ ("value", Json.Int n) ])
    | Metrics.Gauge_value g -> Some (line "gauge" [ ("value", Json.of_float g) ])
    | Metrics.Histogram_value h ->
      let count = Metrics.Histogram.count h in
      let p q = (Printf.sprintf "p%g" q, Json.of_float (Metrics.Histogram.percentile h q)) in
      if count = 0 then None
      else
        Some
          (line "histogram"
             [
               ("count", Json.Int count);
               ("sum", Json.of_float (Metrics.Histogram.sum h));
               ("min", Json.of_float (Metrics.Histogram.min_value h));
               ("max", Json.of_float (Metrics.Histogram.max_value h));
               p 50.0;
               p 90.0;
               p 95.0;
               p 99.0;
             ])
  in
  List.map event (Trace.events ()) @ List.filter_map metric (Metrics.snapshot ())
  |> List.map (fun j -> Json.to_string j ^ "\n")
  |> String.concat ""

let summary () = Metrics.render ()

let write_string ~path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let write_chrome ~path = write_string ~path (chrome_json ())
let write_jsonl ~path = write_string ~path (jsonl ())

let write ~path =
  if Filename.check_suffix path ".jsonl" then write_jsonl ~path else write_chrome ~path
