(* Correctness checks over the responses recorded during a timed phase.
   They run after timing, so they cost the measured run nothing. A
   request fails when its response is an error or any check on it fails;
   each request counts at most once. *)

module Json = Lattice_serve.Json
module Protocol = Lattice_serve.Protocol

type record = {
  req : Workload.req;
  response : string;
  latency_ns : int;
  done_ns : int;  (** when the reply arrived *)
}

(* The [result] value of an ok response, as the bytes the daemon sent:
   the daemon renders [{"id":..,"ok":true,"result":..}] in that order. *)
let result_bytes response =
  let tag = "\"ok\":true,\"result\":" in
  let n = String.length response and m = String.length tag in
  let rec find i =
    if i + m > n then None
    else if String.sub response i m = tag then
      Some (String.sub response (i + m) (n - i - m - 1))
    else find (i + 1)
  in
  find 0

let is_ok response = result_bytes response <> None

let expected_high =
  let memo = Hashtbl.create 8 in
  fun expr state ->
    let tt =
      match Hashtbl.find_opt memo expr with
      | Some tt -> tt
      | None ->
        let ast, names = Lattice_boolfn.Expr.parse expr in
        let tt = Lattice_boolfn.Expr.to_truthtable ast ~nvars:(Array.length names) in
        Hashtbl.replace memo expr tt;
        tt
    in
    (* the lattice pulls the output down: the output is the complement *)
    not (Lattice_boolfn.Truthtable.eval tt state)

let member_bool k j = Option.bind (Json.member k j) Json.to_bool
let member_int k j = Option.bind (Json.member k j) Json.to_int
let member_str k j = Option.bind (Json.member k j) Json.to_str

(* Field checks of one ok result; [None] when it passes. *)
let field_problem ~deck_digests (req : Workload.req) result =
  let j = Json.parse result in
  match req.Workload.spec with
  | Workload.Dc { expr; state; _ } ->
    let want = expected_high expr state in
    if member_bool "expected_high" j <> Some want then
      Some "expected_high disagrees with the truth table"
    else if member_bool "logic_high" j <> Some want then
      Some "logic_high differs from expected_high"
    else None
  | Workload.Deck { deck; _ } ->
    if member_str "digest" j <> Some (List.assoc deck deck_digests) then
      Some (deck ^ ": digest differs from the locally parsed deck")
    else None
  | Workload.Yield _ ->
    if member_int "samples" j <> Some Workload.yield_samples then
      Some "yield ran the wrong sample count"
    else None
  | Workload.Tran _ ->
    if Option.value (member_int "samples" j) ~default:0 < 2 then
      Some "transient recorded no waveform"
    else None

(* [resolve line] answers a request line in-process (see {!Replay.exec});
   every dc_op whose index is a multiple of [resolve_every] is solved
   again there and must return byte-identical results, so its output_v
   matches bit for bit. Returns the failure count and the first few
   reasons. *)
let run ~deck_digests ~resolve ~resolve_every (records : record array) =
  let first_result = Hashtbl.create 256 in
  let resolved = Hashtbl.create 256 in
  let failed = ref 0 and reasons = ref [] in
  Array.iter
    (fun r ->
      let problem =
        match result_bytes r.response with
        | None -> Some ("error response: " ^ r.response)
        | Some result -> (
          let body = Workload.body r.req.Workload.spec in
          match Hashtbl.find_opt first_result body with
          | Some first when first <> result -> Some "repeated request returned a different result"
          | seen -> (
            if seen = None then Hashtbl.replace first_result body result;
            match field_problem ~deck_digests r.req result with
            | Some _ as p -> p
            | None -> (
              match r.req.Workload.spec with
              | Workload.Dc _ when r.req.Workload.index mod resolve_every = 0 ->
                let again =
                  match Hashtbl.find_opt resolved body with
                  | Some a -> a
                  | None ->
                    let a = result_bytes (resolve (Workload.line r.req)) in
                    Hashtbl.replace resolved body a;
                    a
                in
                if again <> Some result then Some "in-process re-solve differs from the daemon"
                else None
              | _ -> None)))
      in
      match problem with
      | None -> ()
      | Some p ->
        incr failed;
        if List.length !reasons < 5 then
          reasons :=
            Printf.sprintf "request %d (%s): %s" r.req.Workload.index
              (Workload.kind r.req.Workload.spec) p
            :: !reasons)
    records;
  (!failed, List.rev !reasons)

let error_ratio ~failed records = float_of_int failed /. float_of_int (Array.length records)
