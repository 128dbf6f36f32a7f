(* Flight recorder: an always-on, fixed-size per-domain ring of the
   most recently completed spans. Unlike the opt-in {!Trace} buffers,
   the rings never grow and never stop recording, so when a request
   fails there is retroactive evidence of what the process was doing.

   Each domain owns one ring; serve workers are systhreads sharing
   domain 0's ring, so the write cursor is an atomic fetch-and-add.
   Slot writes themselves are unsynchronized — a lost race overwrites
   one record with a newer one, which is exactly the ring's contract.
   The only allocation on the recording path is the span record
   itself. *)

type span = {
  name : string;
  cat : string;
  dom : int;  (** recording domain *)
  ts_ns : int;  (** start, ns since the trace epoch *)
  dur_ns : int;
  args : (string * string) list;
}

(* power of two so the cursor wraps with a mask, not a division *)
let capacity = 512
let mask = capacity - 1

let enabled =
  let from_env =
    match Sys.getenv_opt "FTL_FLIGHT" with
    | Some s when String.trim s = "0" -> false
    | Some _ | None -> true
  in
  Atomic.make from_env

let on () = Atomic.get enabled
let set_enabled b = Atomic.set enabled b

let dummy = { name = ""; cat = ""; dom = -1; ts_ns = 0; dur_ns = 0; args = [] }

type ring = { slots : span array; cursor : int Atomic.t }

(* Every ring ever allocated, live or free. A domain takes a ring at its
   first record (DLS init, never on a hot path) and hands it back to
   [free] when it exits, so the next domain reuses it: the registry is
   bounded by the peak number of live domains, not by how many the
   process ever spawned. A freed ring keeps its spans until its next
   owner overwrites them, so dumps still see what exited domains did. *)
let registry : ring list ref = ref []
let free : ring list ref = ref []
let registry_lock = Mutex.create ()

let dls_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_lock;
      let r =
        match !free with
        | r :: rest ->
          free := rest;
          r
        | [] ->
          let r = { slots = Array.make capacity dummy; cursor = Atomic.make 0 } in
          registry := r :: !registry;
          r
      in
      Mutex.unlock registry_lock;
      Domain.at_exit (fun () ->
          Mutex.lock registry_lock;
          free := r :: !free;
          Mutex.unlock registry_lock);
      r)

let record span =
  if Atomic.get enabled then begin
    let r = Domain.DLS.get dls_key in
    let i = Atomic.fetch_and_add r.cursor 1 in
    r.slots.(i land mask) <- span
  end

let all_rings () =
  Mutex.lock registry_lock;
  let rs = !registry in
  Mutex.unlock registry_lock;
  rs

let rings () = List.length (all_rings ())

let dump ?last_n () =
  let out = ref [] in
  List.iter
    (fun r ->
      let c = Atomic.get r.cursor in
      let n = Int.min c capacity in
      (* oldest surviving slot first *)
      for k = c - n to c - 1 do
        let s = r.slots.(k land mask) in
        if s != dummy then out := s :: !out
      done)
    (all_rings ());
  let sorted = List.sort (fun a b -> Int.compare a.ts_ns b.ts_ns) !out in
  match last_n with
  | None -> sorted
  | Some n when n < 0 -> invalid_arg "Ring.dump: negative last_n"
  | Some n ->
    let len = List.length sorted in
    if len <= n then sorted else List.filteri (fun i _ -> i >= len - n) sorted

let recorded () =
  List.fold_left (fun acc r -> acc + Int.min (Atomic.get r.cursor) capacity) 0 (all_rings ())

let reset () =
  List.iter
    (fun r ->
      Atomic.set r.cursor 0;
      Array.fill r.slots 0 capacity dummy)
    (all_rings ())

(* --- serialization ------------------------------------------------------ *)

(* Chrome wants microsecond floats; ns / 1e3 keeps sub-us precision. *)
let us ns = Json.Float (float_of_int ns /. 1e3)

let chrome_event ?(head = []) ~name ~cat ~tid ~ts_ns ?dur_ns args =
  let phase =
    match dur_ns with
    | Some d -> [ ("ph", Json.String "X"); ("ts", us ts_ns); ("dur", us (Int.max 0 d)) ]
    | None -> [ ("ph", Json.String "i"); ("s", Json.String "t"); ("ts", us ts_ns) ]
  in
  Json.Obj
    (head
    @ [ ("name", Json.String name); ("cat", Json.String (if cat = "" then "default" else cat)) ]
    @ phase
    @ [
        ("pid", Json.Int 0);
        ("tid", Json.Int tid);
        ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args));
      ])

let dump_jsonl ?last_n () =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Json.to_string
           (chrome_event ~name:s.name ~cat:s.cat ~tid:s.dom ~ts_ns:s.ts_ns ~dur_ns:s.dur_ns s.args));
      Buffer.add_char b '\n')
    (dump ?last_n ());
  Buffer.contents b
