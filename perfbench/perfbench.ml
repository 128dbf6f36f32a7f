(* Daemon load benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 times the daemon end to end: closed-loop clients over a Unix
   socket, then checks every answer. --trace 1 runs the same seeded
   sequence against the daemon for a fifth of the time, replays it in
   process with a span around each layer call, and reports the
   per-layer split plus the daemon's own counters. Every metric is
   printed by name and unit; the last stdout line is one JSON object. *)

open Perfbench_lib
module Json = Lattice_serve.Json
module Client = Lattice_serve.Client
module Clock = Lattice_obs.Clock

let clients = 2
let setups = 11  (* daemon start-ups timed per end-to-end run *)
let resolve_every = 16
let run_dir = ".perfbench_run"

let end_to_end_metrics =
  [ "throughput_rps"; "latency_p50_ms"; "latency_p99_ms"; "setup_s"; "daemon_peak_rss_mb" ]

type args = { workload : Workload.name; seed : int; seconds : float; trace : bool }

let usage =
  "perfbench --workload dc_warm|sweep_cold|deck_tran --seed N --seconds S --trace 0|1"

let parse_args () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N request-stream seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.assoc_opt !workload Workload.names with
  | None ->
    prerr_endline usage;
    exit 2
  | Some w -> { workload = w; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* --- metrics ------------------------------------------------------------- *)

let printed = ref []

let metric name value unit =
  Printf.printf "%-40s %14.6g %s\n" name value unit;
  printed := (name, value, unit) :: !printed

let note fmt = Printf.printf (fmt ^^ "\n")

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- the daemon phase ---------------------------------------------------- *)

type phase = {
  records : Check.record array;
  start_ns : int;  (** when the timed phase began *)
  setup_s : float array;
  before : Json.t;  (** daemon stats after warm-up *)
  after : Json.t;  (** daemon stats after the timed phase *)
  rss_mb : float;
}

(* daemons still running; killed and reaped however the benchmark ends *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter (fun d -> try Load.kill d with Unix.Unix_error _ -> ()) !live;
      try Unix.rmdir run_dir with Unix.Unix_error _ -> ());
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigint; Sys.sigterm ]

let spawn ~ftl k =
  let socket = Filename.concat run_dir (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) k) in
  let d, c, setup = Load.spawn ~ftl ~socket in
  live := d :: !live;
  (d, c, setup)

let forget d = live := List.filter (( != ) d) !live

let daemon_phase ~ftl ~args ~decks ~seconds ~setups =
  let extra =
    Array.init (setups - 1) (fun k ->
        let d, c, s = spawn ~ftl k in
        Client.close c;
        Load.kill d;
        forget d;
        s)
  in
  let d, control, setup = spawn ~ftl setups in
  Array.iter
    (fun (r : Workload.req) ->
      let response = Load.call control (Workload.line r) in
      if not (Check.is_ok response) then failwith ("warm-up request failed: " ^ response))
    (Workload.warmup args.workload ~decks ~seed:args.seed);
  let before = Client.stats control in
  let records, start_ns =
    Load.drive ~socket:d.Load.socket ~clients ~seconds
      (Workload.request args.workload ~decks ~seed:args.seed)
  in
  let after = Client.stats control in
  let rss_mb = Load.peak_rss_mb d in
  Load.stop d control;
  forget d;
  { records; start_ns; setup_s = Array.append extra [| setup |]; before; after; rss_mb }

let delta p path = Load.stat path p.after -. Load.stat path p.before

let daemon_counts p =
  let d path = int_of_float (delta p path) in
  {
    Replay.solves = d [ "engine"; "dc_solves" ];
    hits = d [ "engine"; "cache"; "hits" ];
    newton_iterations = d [ "engine"; "newton_iterations" ];
  }

(* The daemon's own view of the timed phase. *)
let report_daemon_stats p =
  let n = float_of_int (Array.length p.records) in
  let c = daemon_counts p in
  let hits = float_of_int c.Replay.hits and solves = float_of_int c.Replay.solves in
  let misses = delta p [ "engine"; "cache"; "misses" ] in
  metric "engine.cache_hit_ratio" (ratio hits (hits +. misses)) "ratio";
  metric "engine.cache_evictions_per_request"
    (delta p [ "engine"; "cache"; "evictions" ] /. n)
    "count";
  metric "engine.dc_solves_per_request" (solves /. n) "count";
  metric "engine.newton_iterations_per_solve"
    (ratio (float_of_int c.Replay.newton_iterations) solves)
    "count";
  metric "engine.jobs_per_request" (delta p [ "engine"; "jobs" ] /. n) "count";
  metric "serve.handle_ms_p50" (Load.stat [ "window"; "all"; "p50_ms" ] p.after) "ms";
  metric "serve.handle_ms_p99" (Load.stat [ "window"; "all"; "p99_ms" ] p.after) "ms"

let check_phase ~decks p =
  let deck_digests =
    Array.to_list
      (Array.mapi
         (fun k name ->
           match Lattice_deck.Deck.parse decks.(k) with
           | Ok d -> (name, Lattice_spice.Netlist.structural_digest d.Lattice_deck.Deck.netlist)
           | Error e -> failwith (Lattice_deck.Deck.error_to_string ~file:name e))
         Workload.deck_names)
  in
  let resolver = Replay.create ~domains:1 in
  let failed, reasons =
    Check.run ~deck_digests ~resolve:(Replay.exec resolver) ~resolve_every p.records
  in
  List.iter (fun r -> note "check failed: %s" r) reasons;
  failed

(* --- the traced replay --------------------------------------------------- *)

type pass = {
  wall_ns : int;
  counts : Replay.counters;
  responses : string array;
  layers : (string, Spans.layer) Hashtbl.t;
}

let replay_pass ~traced ~warm lines =
  let st = Replay.create ~domains:Load.domains in
  Array.iter (fun l -> ignore (Replay.exec st l)) warm;
  let c0 = Replay.counters st in
  st.Replay.spans.Spans.on <- traced;
  let t0 = Clock.now_ns () in
  let responses = Array.map (Replay.exec st) lines in
  let wall_ns = Clock.now_ns () - t0 in
  st.Replay.spans.Spans.on <- false;
  let c1 = Replay.counters st in
  {
    wall_ns;
    counts =
      {
        Replay.solves = c1.Replay.solves - c0.Replay.solves;
        hits = c1.Replay.hits - c0.Replay.hits;
        newton_iterations = c1.Replay.newton_iterations - c0.Replay.newton_iterations;
      };
    responses;
    layers = Spans.fold (Spans.spans st.Replay.spans);
  }

let self_ns p = Hashtbl.fold (fun _ (l : Spans.layer) acc -> acc + l.Spans.self_ns) p.layers 0

(* --- runs ------------------------------------------------------------------ *)

let end_to_end ~ftl ~args ~decks =
  let p = daemon_phase ~ftl ~args ~decks ~seconds:args.seconds ~setups in
  let n = Array.length p.records in
  let failed = check_phase ~decks p in
  let ok, last =
    Array.fold_left
      (fun (ok, last) (r : Check.record) ->
        (ok + Bool.to_int (Check.is_ok r.Check.response), Int.max last r.Check.done_ns))
      (0, p.start_ns) p.records
  in
  let wall_s = Clock.ns_to_s (last - p.start_ns) in
  let lat =
    Stat.sorted_copy
      (Array.map (fun (r : Check.record) -> float_of_int r.Check.latency_ns /. 1e6) p.records)
  in
  note "timed requests: %d over %.3f s from %d closed-loop clients" n wall_s clients;
  metric "throughput_rps" (float_of_int ok /. wall_s) "1/s";
  metric "latency_p50_ms" (Stat.percentile lat 50.0) "ms";
  metric "latency_p99_ms" (Stat.percentile lat 99.0) "ms";
  metric "latency_samples" (float_of_int n) "count";
  metric "error_ratio" (Check.error_ratio ~failed p.records) "ratio";
  metric "setup_s" (Stat.median p.setup_s) "s";
  metric "daemon_peak_rss_mb" p.rss_mb "MB";
  report_daemon_stats p;
  (n, failed, true)

let traced ~ftl ~args ~decks =
  let seconds = Float.max 0.5 (args.seconds /. 5.0) in
  let p = daemon_phase ~ftl ~args ~decks ~seconds ~setups:1 in
  report_daemon_stats p;
  let failed = check_phase ~decks p in
  let reqs = Array.copy p.records in
  Array.sort
    (fun (a : Check.record) b -> compare a.Check.req.Workload.index b.Check.req.Workload.index)
    reqs;
  let lines = Array.map (fun (r : Check.record) -> Workload.line r.Check.req) reqs in
  let warm = Array.map Workload.line (Workload.warmup args.workload ~decks ~seed:args.seed) in
  (* untraced and traced passes alternate, so drift hits both alike *)
  let pairs =
    List.init 2 (fun _ ->
        let u = replay_pass ~traced:false ~warm lines in
        let t = replay_pass ~traced:true ~warm lines in
        (u, t))
  in
  let n = float_of_int (Array.length lines) in
  let traced_passes = List.map snd pairs in
  let per_req f =
    List.fold_left (fun acc t -> acc +. f t) 0.0 traced_passes
    /. (n *. float_of_int (List.length traced_passes))
  in
  List.iter
    (fun layer ->
      let get t =
        Option.value (Hashtbl.find_opt t.layers layer) ~default:{ Spans.self_ns = 0; calls = 0 }
      in
      metric (layer ^ "_us") (per_req (fun t -> float_of_int (get t).Spans.self_ns /. 1e3)) "us";
      metric (layer ^ "_calls") (per_req (fun t -> float_of_int (get t).Spans.calls)) "count")
    Replay.layers;
  let unattributed =
    List.fold_left
      (fun acc t ->
        Float.max acc (float_of_int (t.wall_ns - self_ns t) /. float_of_int t.wall_ns))
      neg_infinity traced_passes
  in
  metric "unattributed_ratio" unattributed "ratio";
  let overhead (u, t) = float_of_int t.wall_ns /. float_of_int u.wall_ns in
  metric "obs.trace_overhead_ratio" (Stat.median (Array.of_list (List.map overhead pairs))) "ratio";
  (* replay fidelity: same answers, same engine work as the daemon *)
  let mismatched = ref 0 in
  Array.iteri
    (fun i (r : Check.record) ->
      let replayed = (List.hd traced_passes).responses.(i) in
      if Check.result_bytes replayed <> Check.result_bytes r.Check.response then begin
        if !mismatched < 5 then note "replay differs on request %d" r.Check.req.Workload.index;
        incr mismatched
      end)
    reqs;
  let d = daemon_counts p in
  let counts_equal = List.for_all (fun (u, t) -> u.counts = d && t.counts = d) pairs in
  let work who (c : Replay.counters) =
    note "%s engine work: %d solves, %d cache hits, %d newton iterations" who c.Replay.solves
      c.Replay.hits c.Replay.newton_iterations
  in
  work "daemon" d;
  if not counts_equal then
    List.iter
      (fun (u, t) ->
        work "replay" u.counts;
        work "replay" t.counts)
      pairs;
  if unattributed > 0.10 then note "gate: unattributed_ratio %.3f exceeds 0.10" unattributed;
  (Array.length reqs, failed + !mismatched, counts_equal && unattributed <= 0.10)

let () =
  let args = parse_args () in
  let ftl =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/ftl.exe"
  in
  if not (Sys.file_exists ftl) then failwith ("daemon binary not found: " ^ ftl);
  let decks = Workload.load_decks () in
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  let attempted, failed, gates = (if args.trace then traced else end_to_end) ~ftl ~args ~decks in
  (* a traced run reports every metric it prints; an end-to-end run
     reports the user-facing ones *)
  let wanted (name, _, _) = args.trace || List.mem name end_to_end_metrics in
  let metrics =
    List.rev_map
      (fun (name, v, unit) ->
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
      (List.filter wanted !printed)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0 && gates));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj metrics);
          ]))
