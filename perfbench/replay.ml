(* In-process replay of a request sequence, calling each layer's public
   functions in the order the daemon's handlers do and wrapping every
   call in a span named after its layer. The result cache and the
   dc_op path are rebuilt here from [Key], [Cache] and [Dcop] so that
   key digest, lookup, plan compile and Newton show as separate layers;
   yield and run_deck go through an engine configured like the daemon's. *)

module Sp = Lattice_spice
module Json = Lattice_serve.Json
module Protocol = Lattice_serve.Protocol
module Engine = Lattice_engine.Engine
module Cache = Lattice_engine.Cache
module Key = Lattice_engine.Key
module Cancel = Lattice_engine.Cancel
module Tt = Lattice_boolfn.Truthtable

(* The layers the benchmark reports, in report order. *)
let layers =
  [
    "serve.protocol"; "synthesis.grid"; "spice.build"; "engine.key"; "engine.cache";
    "spice.plan_compile"; "spice.newton"; "flow.monte_carlo"; "spice.transient";
    "deck.parse"; "deck.run";
  ]

(* the daemon's configuration: [Server.default_config] values *)
let cache_capacity = 4096
let deadline_s = 30.0
let deck_limits = { Lattice_deck.Runner.max_sweep_points = 256; max_tran_steps = 20_000 }

type dc_result = (Lattice_numerics.Vec.t * Sp.Dcop.diagnostics, Sp.Dcop.failure) result

type t = {
  spans : Spans.t;
  engine : Engine.t;
  cache : dc_result Cache.t;
  mutable dc_solves : int;
  mutable newton : int;
}

let create ~domains =
  {
    spans = Spans.create ();
    engine = Engine.create ~domains ~cache_capacity ~store_dir:"" ();
    cache = Cache.create ~capacity:cache_capacity ();
    dc_solves = 0;
    newton = 0;
  }

type counters = { solves : int; hits : int; newton_iterations : int }

(* the same three counters the daemon's [stats] reports, summed over the
   replay's own dc_op cache and its engine *)
let counters t =
  let tel = Engine.telemetry t.engine in
  {
    solves = t.dc_solves + tel.Engine.dc_solves;
    hits = (Cache.stats t.cache).Cache.hits + tel.Engine.cache.Cache.hits;
    newton_iterations = t.newton + tel.Engine.newton_total;
  }

exception Reject of Protocol.error_code * string

let span t = Spans.with_span t.spans

let grid_of_expr t expr =
  span t "synthesis.grid" (fun () ->
      let ast, names = Lattice_boolfn.Expr.parse expr in
      let nvars = Array.length names in
      let tt = Lattice_boolfn.Expr.to_truthtable ast ~nvars in
      let synth = Lattice_synthesis.Altun_riedel.synthesize tt in
      (tt, nvars, synth.Lattice_synthesis.Altun_riedel.grid))

let copy_result = function Ok (x, d) -> Ok (Array.copy x, d) | Error _ as e -> e

(* [Engine.dc_op], with each of its steps in its own layer *)
let dc_op t ~cancel netlist =
  let key = span t "engine.key" (fun () -> Key.dc_op netlist) in
  match span t "engine.cache" (fun () -> Option.map copy_result (Cache.find t.cache ~key)) with
  | Some r -> r
  | None ->
    let options = Sp.Dcop.default_options in
    let plan = span t "spice.plan_compile" (fun () -> Sp.Dcop.plan_for options netlist) in
    let r = span t "spice.newton" (fun () -> Sp.Dcop.solve_diag ~options ?plan ~cancel netlist) in
    t.dc_solves <- t.dc_solves + 1;
    (t.newton <-
       t.newton
       +
       match r with
       | Ok (_, d) -> d.Sp.Dcop.newton_iterations
       | Error f -> List.fold_left (fun acc (_, n) -> acc + n) 0 f.Sp.Dcop.attempts);
    span t "engine.cache" (fun () -> Cache.add t.cache ~key (copy_result r));
    r

let dc_config vdd =
  match vdd with
  | None -> Sp.Lattice_circuit.default_config
  | Some v -> { Sp.Lattice_circuit.default_config with Sp.Lattice_circuit.vdd = v }

(* The handlers below build their result objects exactly as the daemon's
   do, so replayed results are byte-comparable with the daemon's. *)
let handle_dc_op t ~cancel ~expr ~state ~vdd =
  let tt, _nvars, grid = grid_of_expr t expr in
  let config = dc_config vdd in
  let vdd = config.Sp.Lattice_circuit.vdd in
  let lc =
    span t "spice.build" (fun () ->
        let stimulus v = Sp.Source.Dc (if (state lsr v) land 1 = 1 then vdd else 0.0) in
        Sp.Lattice_circuit.build ~config grid ~stimulus)
  in
  let netlist = lc.Sp.Lattice_circuit.netlist in
  match dc_op t ~cancel netlist with
  | Error f -> raise (Reject (Protocol.Non_convergent, Sp.Dcop.pp_failure f))
  | Ok (x, diag) ->
    span t "serve.protocol" (fun () ->
        let v = Sp.Mna.voltage x (Sp.Netlist.node netlist lc.Sp.Lattice_circuit.output_node) in
        Json.Obj
          [
            ("expr", Json.String expr);
            ("state", Json.Int state);
            ("output_v", Protocol.json_float v);
            ("logic_high", Json.Bool (v > vdd /. 2.0));
            ("expected_high", Json.Bool (not (Tt.eval tt state)));
            ("strategy", Json.String (Sp.Dcop.strategy_name diag.Sp.Dcop.strategy));
            ("newton_iterations", Json.Int diag.Sp.Dcop.newton_iterations);
          ])

let handle_transient t ~cancel ~expr ~bit_time ~h =
  let _tt, nvars, grid = grid_of_expr t expr in
  let vdd = Sp.Lattice_circuit.default_config.Sp.Lattice_circuit.vdd in
  let lc =
    span t "spice.build" (fun () ->
        Sp.Lattice_circuit.build grid
          ~stimulus:(Sp.Lattice_circuit.exhaustive_stimulus ~vdd ~bit_time))
  in
  let t_stop = float_of_int (1 lsl nvars) *. bit_time in
  let out = lc.Sp.Lattice_circuit.output_node in
  match
    span t "spice.transient" (fun () ->
        Sp.Transient.run_diag ~cancel lc.Sp.Lattice_circuit.netlist ~h ~t_stop ~record:[ out ]
          ())
  with
  | Error f ->
    raise (Reject (Protocol.Non_convergent, Sp.Dcop.pp_failure f.Sp.Transient.dc_failure))
  | Ok r ->
    span t "serve.protocol" (fun () ->
        let wave = Sp.Transient.signal r out in
        Json.Obj
          [
            ("expr", Json.String expr);
            ("t_stop", Protocol.json_float t_stop);
            ("samples", Json.Int (Array.length r.Sp.Transient.times));
            ("steps_taken", Json.Int r.Sp.Transient.stats.Sp.Transient.steps_taken);
            ("halvings", Json.Int r.Sp.Transient.stats.Sp.Transient.halvings);
            ("newton_iterations", Json.Int r.Sp.Transient.newton_iterations_total);
            ("output_min_v", Protocol.json_float (Array.fold_left Float.min infinity wave));
            ("output_max_v", Protocol.json_float (Array.fold_left Float.max neg_infinity wave));
            ("output_final_v", Protocol.json_float wave.(Array.length wave - 1));
          ])

let handle_yield t ~cancel ~expr ~samples ~sigma_vth ~seed =
  let tt, _nvars, grid = grid_of_expr t expr in
  let module Mc = Lattice_flow.Monte_carlo in
  let mc =
    span t "flow.monte_carlo" (fun () ->
        Mc.run ~engine:t.engine ~cancel ~variation:{ Mc.sigma_vth; sigma_kp_rel = 0.1 } ~samples
          ~seed grid ~target:tt)
  in
  Cancel.check cancel;
  span t "serve.protocol" (fun () ->
      Json.Obj
        [
          ("expr", Json.String expr);
          ("samples", Json.Int mc.Mc.samples);
          ("yield", Protocol.json_float mc.Mc.yield);
          ("v_low_mean", Protocol.json_float mc.Mc.v_low_mean);
          ("v_low_std", Protocol.json_float mc.Mc.v_low_std);
          ("v_high_mean", Protocol.json_float mc.Mc.v_high_mean);
        ])

let analysis_json =
  let open Lattice_deck.Runner in
  function
  | Op_result { strategy; rows } ->
    Json.Obj
      [
        ("type", Json.String "op");
        ("strategy", Json.String strategy);
        ("nodes", Json.Obj (List.map (fun (n, v) -> (n, Protocol.json_float v)) rows));
      ]
  | Dc_result { source; probes; rows } ->
    Json.Obj
      [
        ("type", Json.String "dc");
        ("source", Json.String source);
        ("points", Json.Int (List.length rows));
        ("probes", Json.List (List.map (fun p -> Json.String p) probes));
      ]
  | Tran_result { times; nodes; newton_iterations; _ } ->
    Json.Obj
      [
        ("type", Json.String "tran");
        ("samples", Json.Int (Array.length times));
        ("newton_iterations", Json.Int newton_iterations);
        ( "finals",
          Json.Obj
            (List.map
               (fun (n, samples) -> (n, Protocol.json_float samples.(Array.length samples - 1)))
               nodes) );
      ]
  | Ac_result { source; output; dc_gain; f_3db; points } ->
    Json.Obj
      [
        ("type", Json.String "ac");
        ("source", Json.String source);
        ("output", Json.String output);
        ("dc_gain", Protocol.json_float dc_gain);
        ("f_3db", match f_3db with None -> Json.Null | Some f -> Protocol.json_float f);
        ("points", Json.Int (List.length points));
      ]

let handle_run_deck t ~cancel ~deck ~smoke =
  match span t "deck.parse" (fun () -> Lattice_deck.Deck.parse deck) with
  | Error e -> raise (Reject (Protocol.Deck_error, e.Lattice_deck.Deck.msg))
  | Ok d -> (
    match
      span t "deck.run" (fun () ->
          Lattice_deck.Runner.run ~engine:t.engine ~cancel ~smoke ~limits:deck_limits d)
    with
    | Error msg -> raise (Reject (Protocol.Non_convergent, msg))
    | Ok r ->
      span t "serve.protocol" (fun () ->
          Json.Obj
            [
              ("title", Json.String r.Lattice_deck.Runner.title);
              ("digest", Json.String r.Lattice_deck.Runner.digest);
              ( "analyses",
                Json.List
                  (List.map (fun (_, res) -> analysis_json res) r.Lattice_deck.Runner.results) );
            ]))

(* One request line in, one response line out, as the daemon would
   answer it. *)
let exec t line =
  match span t "serve.protocol" (fun () -> Protocol.parse_request line) with
  | Error (id, code, msg) -> Protocol.render_error ~id code msg
  | Ok env -> (
    let id = env.Protocol.id in
    let cancel = Cancel.of_deadline_s (Some deadline_s) in
    match
      match env.Protocol.req with
      | Protocol.Dc_op { expr; state; vdd } -> handle_dc_op t ~cancel ~expr ~state ~vdd
      | Protocol.Transient { expr; bit_time; h } -> handle_transient t ~cancel ~expr ~bit_time ~h
      | Protocol.Yield { expr; samples; sigma_vth; seed } ->
        handle_yield t ~cancel ~expr ~samples ~sigma_vth ~seed
      | Protocol.Run_deck { deck; smoke } -> handle_run_deck t ~cancel ~deck ~smoke
      | r -> raise (Reject (Protocol.Bad_request, Protocol.request_name r ^ " is not replayed"))
    with
    | result -> span t "serve.protocol" (fun () -> Protocol.render_ok ~id result)
    | exception Reject (code, msg) -> Protocol.render_error ~id code msg)
