(* In-memory span recorder for the traced replay. Spans wrap the calls
   the benchmark makes into each layer; they are kept in memory and
   folded into per-layer self time once the replay ends. Single-threaded:
   the replay drives every layer from one thread (the engine's own
   domains run inside a span and are not recorded separately). *)

type span = {
  name : string;
  start_ns : int;
  stop_ns : int;
  parent : int;  (** index of the enclosing span in the record, or -1 *)
}

type t = {
  mutable on : bool;
  mutable spans : span array;
  mutable len : int;
  mutable open_ : int list;  (* slots of the open spans, innermost first *)
}

let create () = { on = false; spans = [||]; len = 0; open_ = [] }

let reset t =
  t.spans <- [||];
  t.len <- 0;
  t.open_ <- []

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (Int.max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

(* A span's slot is claimed when it opens, so its children can name it
   as their parent before it closes. *)
let with_span t name f =
  if not t.on then f ()
  else begin
    let parent = match t.open_ with slot :: _ -> slot | [] -> -1 in
    let slot = t.len in
    push t { name; start_ns = 0; stop_ns = 0; parent };
    let start = Lattice_obs.Clock.now_ns () in
    t.open_ <- slot :: t.open_;
    let close () =
      let stop = Lattice_obs.Clock.now_ns () in
      t.open_ <- List.tl t.open_;
      t.spans.(slot) <- { name; start_ns = start; stop_ns = stop; parent }
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = Array.sub t.spans 0 t.len

type layer = { self_ns : int; calls : int }

(* Self time of a span = its duration minus the time its direct children
   cover; summed by name. Children never overlap in a single-threaded
   record, so subtracting their durations is exact. *)
let fold (spans : span array) =
  let child_ns = Array.make (Array.length spans) 0 in
  Array.iter
    (fun s ->
      if s.parent >= 0 then child_ns.(s.parent) <- child_ns.(s.parent) + (s.stop_ns - s.start_ns))
    spans;
  let by_name = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let self = s.stop_ns - s.start_ns - child_ns.(i) in
      let prev =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:{ self_ns = 0; calls = 0 }
      in
      Hashtbl.replace by_name s.name { self_ns = prev.self_ns + self; calls = prev.calls + 1 })
    spans;
  by_name
