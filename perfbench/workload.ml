(* Seeded request streams for the three workloads.

   Request [i] of a stream is a pure function of (workload, seed, i), so
   every run with one seed sends the same requests whatever the timing.
   Streams are built from shuffled blocks holding a fixed mix, so any
   prefix a time-bounded run sends carries the mix to within one block. *)

module Json = Lattice_serve.Json

type name = Dc_warm | Sweep_cold | Deck_tran

let names = [ ("dc_warm", Dc_warm); ("sweep_cold", Sweep_cold); ("deck_tran", Deck_tran) ]

(* 2–4-variable functions; the 4x4 XOR3 and the issue's mixed 4-var
   expression are the largest lattices. *)
let exprs = [| "a^b"; "a&b|c"; "a&(b^c)"; "a^b^c"; "(a|b)&(c|d)"; "(a^b)(c+d') + a'c" |]

let tran_exprs = [| "a^b"; "a&b|c"; "a&(b^c)"; "a^b^c" |]
let deck_names = [| "inverter"; "xor3"; "rc_ladder"; "lattice_4x4" |]
let deck_path name = Filename.concat "examples/decks" (name ^ ".sp")

(* Fig-11-style stimulus with 10 steps per bit keeps one transient near a
   millisecond while still stepping every input edge. *)
let tran_bit_time = 50e-9
let tran_h = 5e-9
let yield_samples = 4

let nvars expr = Array.length (snd (Lattice_boolfn.Expr.parse expr))

(* every (expression, input state) pair: the dc_warm key set *)
let keys =
  Array.concat
    (Array.to_list (Array.map (fun e -> Array.init (1 lsl nvars e) (fun s -> (e, s))) exprs))

type spec =
  | Dc of { expr : string; state : int; vdd : float option }
  | Yield of { expr : string; seed : int }
  | Tran of { expr : string }
  | Deck of { deck : string; text : string }

type req = { index : int; spec : spec }

let kind = function
  | Dc _ -> "dc_op"
  | Yield _ -> "yield"
  | Tran _ -> "transient"
  | Deck _ -> "run_deck"

let fields = function
  | Dc { expr; state; vdd } ->
    [ ("type", Json.String "dc_op"); ("expr", Json.String expr); ("state", Json.Int state) ]
    @ (match vdd with None -> [] | Some v -> [ ("vdd", Json.Float v) ])
  | Yield { expr; seed } ->
    [
      ("type", Json.String "yield");
      ("expr", Json.String expr);
      ("samples", Json.Int yield_samples);
      ("seed", Json.Int seed);
    ]
  | Tran { expr } ->
    [
      ("type", Json.String "transient");
      ("expr", Json.String expr);
      ("bit_time", Json.Float tran_bit_time);
      ("h", Json.Float tran_h);
    ]
  | Deck { text; _ } ->
    [ ("type", Json.String "run_deck"); ("deck", Json.String text); ("smoke", Json.Bool true) ]

(* the request without its id: equal bodies must get equal results *)
let body spec = Json.to_string (Json.Obj (fields spec))
let line r = Json.to_string (Json.Obj (("id", Json.Int r.index) :: fields r.spec))

let rng seed tag k = Random.State.make [| seed; tag; k |]

let shuffled st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Distinct supply voltages in [1.1, 1.3): an odd multiplier permutes
   the 2^20 slots, timed requests take even grid points and warm-up odd
   ones, so no two requests of a run share a cache key. *)
let vdd ~seed ~warm i =
  let slot = ((i * 0x9E3779B1) + seed) land ((1 lsl 20) - 1) in
  1.1 +. (0.2 *. float_of_int ((2 * slot) + Bool.to_int warm) /. float_of_int (1 lsl 21))

let yield_seed ~seed ~warm i = (seed lsl 32) lor (Bool.to_int warm lsl 31) lor i

(* sweep_cold block: every dc_warm key once plus two yields per
   expression, 60 dc_op to 12 yield *)
let sweep_block =
  Array.append
    (Array.map (fun (expr, state) -> `Dc (expr, state)) keys)
    (Array.init (2 * Array.length exprs) (fun j -> `Yield exprs.(j mod Array.length exprs)))

(* deck_tran block: each deck four times and each transient expression
   once, 16 run_deck to 4 transient *)
let deck_block =
  Array.append
    (Array.init (4 * Array.length deck_names) (fun j -> `Deck (j mod Array.length deck_names)))
    (Array.map (fun e -> `Tran e) tran_exprs)

let sweep ~seed ~warm i =
  let n = Array.length sweep_block in
  match (shuffled (rng seed 2 (i / n)) sweep_block).(i mod n) with
  | `Dc (expr, state) -> Dc { expr; state; vdd = Some (vdd ~seed ~warm i) }
  | `Yield expr -> Yield { expr; seed = yield_seed ~seed ~warm i }

(* [decks] holds the text of each of [deck_names], in order. *)
let request name ~decks ~seed i =
  let spec =
    match name with
    | Dc_warm ->
      let n = Array.length keys in
      let expr, state = (shuffled (rng seed 1 (i / n)) keys).(i mod n) in
      Dc { expr; state; vdd = None }
    | Sweep_cold -> sweep ~seed ~warm:false i
    | Deck_tran -> (
      let n = Array.length deck_block in
      match (shuffled (rng seed 4 (i / n)) deck_block).(i mod n) with
      | `Deck k -> Deck { deck = deck_names.(k); text = decks.(k) }
      | `Tran expr -> Tran { expr })
  in
  { index = i; spec }

(* Sent once, in order, before timing. dc_warm and deck_tran warm-ups
   cover every cacheable key of the timed stream, so each timed DC
   answer is a cache hit; sweep_cold's warm-up draws from the disjoint
   vdd/seed range, so each timed request still misses. Warm-up ids are
   negative to keep them apart from timed ids. *)
let warmup name ~decks ~seed =
  let specs =
    match name with
    | Dc_warm ->
      Array.map (fun (expr, state) -> Dc { expr; state; vdd = None }) (shuffled (rng seed 6 0) keys)
    | Sweep_cold -> Array.init 20 (sweep ~seed ~warm:true)
    | Deck_tran ->
      Array.append
        (Array.mapi (fun k deck -> Deck { deck; text = decks.(k) }) deck_names)
        (Array.map (fun expr -> Tran { expr }) tran_exprs)
  in
  Array.mapi (fun k spec -> { index = -(k + 1); spec }) specs

let load_decks () =
  Array.map (fun name -> In_channel.with_open_bin (deck_path name) In_channel.input_all) deck_names
