(* Tests of the benchmark's own machinery: seeded streams, order
   statistics, span folding and the answer checks. *)

open Perfbench_lib
module Json = Lattice_serve.Json
module Protocol = Lattice_serve.Protocol

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let decks = [| "* a\n.end\n"; "* b\n.end\n"; "* c\n.end\n"; "* d\n.end\n" |]
let stream w ~seed n = List.init n (fun i -> Workload.line (Workload.request w ~decks ~seed i))

let test_streams () =
  List.iter
    (fun (name, w) ->
      check (name ^ ": same seed, same sequence") (stream w ~seed:7 500 = stream w ~seed:7 500);
      check (name ^ ": other seed, other sequence") (stream w ~seed:7 500 <> stream w ~seed:8 500);
      let warm s = Array.map Workload.line (Workload.warmup w ~decks ~seed:s) in
      check (name ^ ": same seed, same warm-up") (warm 7 = warm 7))
    Workload.names;
  (* every sweep_cold request, warm-up included, is a distinct cache key *)
  let bodies =
    Array.append
      (Array.init 5000 (fun i ->
           (Workload.request Workload.Sweep_cold ~decks ~seed:3 i).Workload.spec))
      (Array.map (fun r -> r.Workload.spec) (Workload.warmup Workload.Sweep_cold ~decks ~seed:3))
    |> Array.map Workload.body
  in
  let seen = Hashtbl.create 8192 in
  Array.iter (fun b -> Hashtbl.replace seen b ()) bodies;
  check "sweep_cold: no repeated request" (Hashtbl.length seen = Array.length bodies);
  (* and the mix holds in every block *)
  let yields =
    List.length
      (List.filter
         (fun i ->
           match (Workload.request Workload.Sweep_cold ~decks ~seed:3 i).Workload.spec with
           | Workload.Yield _ -> true
           | _ -> false)
         (List.init 720 Fun.id))
  in
  check "sweep_cold: 12 yields per 72 requests" (yields = 120)

let test_stat () =
  let s = Stat.sorted_copy (Array.init 10 (fun i -> float_of_int (10 - i))) in
  check "p50 of 1..10" (Stat.percentile s 50.0 = 5.0);
  check "p90 of 1..10" (Stat.percentile s 90.0 = 9.0);
  check "p99 of 1..10" (Stat.percentile s 99.0 = 10.0);
  check "p0 of 1..10" (Stat.percentile s 0.0 = 1.0);
  let s200 = Stat.sorted_copy (Array.init 200 (fun i -> float_of_int (i + 1))) in
  check "p99 of 1..200" (Stat.percentile s200 99.0 = 198.0);
  check "median odd" (Stat.median [| 3.0; 1.0; 2.0 |] = 2.0);
  check "median even" (Stat.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.5)

let test_fold () =
  let sp name start_ns stop_ns parent = { Spans.name; start_ns; stop_ns; parent } in
  (* A [0,100] holds B [10,40] (which holds C [20,30]) and B [50,70] *)
  let tree = [| sp "A" 0 100 (-1); sp "B" 10 40 0; sp "C" 20 30 1; sp "B" 50 70 0 |] in
  let f = Spans.fold tree in
  let get n = Hashtbl.find f n in
  check "self A" ((get "A").Spans.self_ns = 50 && (get "A").Spans.calls = 1);
  check "self B" ((get "B").Spans.self_ns = 40 && (get "B").Spans.calls = 2);
  check "self C" ((get "C").Spans.self_ns = 10 && (get "C").Spans.calls = 1);
  (* two roots side by side keep their own time *)
  let f = Spans.fold [| sp "A" 0 10 (-1); sp "A" 10 25 (-1); sp "B" 12 20 1 |] in
  check "self of sibling roots" ((Hashtbl.find f "A").Spans.self_ns = 17);
  (* recorded spans nest as called, and self times add up to the roots *)
  let t = Spans.create () in
  t.Spans.on <- true;
  Spans.with_span t "outer" (fun () ->
      Spans.with_span t "inner" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
      Spans.with_span t "inner" ignore);
  Spans.with_span t "outer" ignore;
  let rec_ = Spans.spans t in
  check "recorded parents"
    (Array.map (fun s -> (s.Spans.name, s.Spans.parent)) rec_
    = [| ("outer", -1); ("inner", 0); ("inner", 0); ("outer", -1) |]);
  let roots =
    Array.fold_left
      (fun acc s ->
        if s.Spans.parent < 0 then acc + s.Spans.stop_ns - s.Spans.start_ns else acc)
      0 rec_
  in
  let selfs = Hashtbl.fold (fun _ l acc -> acc + l.Spans.self_ns) (Spans.fold rec_) 0 in
  check "self times cover the roots" (roots = selfs);
  t.Spans.on <- false;
  Spans.with_span t "off" ignore;
  check "no spans while off" (Array.length (Spans.spans t) = 4)

let dc_response ~index ~logic_high ~output_v =
  Protocol.render_ok ~id:(Some (Json.Int index))
    (Json.Obj
       [
         ("expr", Json.String "a^b");
         ("state", Json.Int 1);
         ("output_v", Json.Float output_v);
         ("logic_high", Json.Bool logic_high);
         ("expected_high", Json.Bool false);
       ])

(* state 1 sets a: a^b holds, so the pulled-down output is low *)
let dc_record ?(logic_high = false) ?(output_v = 0.05) index =
  {
    Check.req = { Workload.index; spec = Workload.Dc { expr = "a^b"; state = 1; vdd = None } };
    response = dc_response ~index ~logic_high ~output_v;
    latency_ns = 1;
    done_ns = 0;
  }

let run_checks ?(resolve = fun _ -> "") ?(resolve_every = max_int) records =
  let failed, _ = Check.run ~deck_digests:[ ("xor3", "abc") ] ~resolve ~resolve_every records in
  (failed, Check.error_ratio ~failed records)

let test_checks () =
  let good = Array.init 8 (fun i -> dc_record (i + 1)) in
  check "clean responses pass" (run_checks good = (0, 0.0));
  let bad = Array.copy good in
  bad.(3) <- dc_record ~logic_high:true 4;
  check "wrong logic level counts in error_ratio" (run_checks bad = (1, 1.0 /. 8.0));
  let bad = Array.copy good in
  bad.(5) <- dc_record ~output_v:0.06 6;
  check "repeat with another result counts" (run_checks bad = (1, 1.0 /. 8.0));
  let bad = Array.copy good in
  bad.(0) <-
    { (good.(0)) with Check.response = Protocol.render_error ~id:None Protocol.Internal "boom" };
  check "error response counts" (fst (run_checks bad) = 1);
  let deck d =
    {
      Check.req = { Workload.index = 1; spec = Workload.Deck { deck = "xor3"; text = "" } };
      response =
        Protocol.render_ok ~id:(Some (Json.Int 1)) (Json.Obj [ ("digest", Json.String d) ]);
      latency_ns = 1;
      done_ns = 0;
    }
  in
  check "deck digest match" (fst (run_checks [| deck "abc" |]) = 0);
  check "deck digest mismatch counts" (fst (run_checks [| deck "abd" |]) = 1);
  (* the in-process re-solve must agree bit for bit *)
  let resolve_same line =
    let i = Option.get (Json.to_int (Option.get (Json.member "id" (Json.parse line)))) in
    dc_response ~index:i ~logic_high:false ~output_v:0.05
  in
  let resolve_off line =
    let i = Option.get (Json.to_int (Option.get (Json.member "id" (Json.parse line)))) in
    dc_response ~index:i ~logic_high:false ~output_v:(Float.succ 0.05)
  in
  check "re-solve agrees" (fst (run_checks ~resolve:resolve_same ~resolve_every:2 good) = 0);
  check "re-solve off by one ulp counts"
    (fst (run_checks ~resolve:resolve_off ~resolve_every:2 good) = 4)

let () =
  test_streams ();
  test_stat ();
  test_fold ();
  test_checks ();
  if !failures > 0 then begin
    Printf.printf "%d perfbench test(s) failed\n" !failures;
    exit 1
  end;
  print_endline "perfbench tests passed"
