(* The daemon under test and the closed-loop load generator.

   The daemon is the [ftl] binary in its own process: 2 workers, 2
   engine domains, the default 4096-entry cache and no persistent store.
   Clients are threads of this process, one connection each, and send
   their next request only once the previous reply has arrived. *)

module Client = Lattice_serve.Client
module Json = Lattice_serve.Json
module Clock = Lattice_obs.Clock

let workers = 2
let domains = 2

type daemon = { pid : int; socket : string }

(* The daemon must see none of the FTL_* settings (store directory,
   domain count, flight spool) of the calling shell. *)
let daemon_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 4 && String.sub kv 0 4 = "FTL_"))
       (Array.to_list (Unix.environment ())))

let connect_when_up ~pid socket =
  let give_up = Clock.now_ns () + 30_000_000_000 in
  let rec go () =
    match Client.connect (Client.Unix_socket socket) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited during start-up");
      if Clock.now_ns () > give_up then failwith "daemon did not come up within 30 s";
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

(* Spawn a daemon and return it with a connected control client and the
   set-up time: spawn until the first ok ping. *)
let spawn ~ftl ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let t0 = Clock.now_ns () in
  let pid =
    Unix.create_process_env ftl
      [|
        ftl; "serve"; "--socket"; socket; "--workers"; string_of_int workers; "--domains";
        string_of_int domains; "--cache-dir"; ""; "--quiet";
      |]
      (daemon_env ()) Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; socket } in
  let c = connect_when_up ~pid socket in
  if not (Client.ping c) then failwith "daemon answered the first ping with an error";
  (d, c, Clock.ns_to_s (Clock.now_ns () - t0))

(* Start-up timing only needs the daemon gone, not drained. *)
let kill d =
  Unix.kill d.pid Sys.sigkill;
  ignore (Unix.waitpid [] d.pid);
  try Sys.remove d.socket with Sys_error _ -> ()

let stop d control =
  (try
     Client.shutdown control;
     Client.close control
   with _ -> Unix.kill d.pid Sys.sigkill);
  ignore (Unix.waitpid [] d.pid);
  try Sys.remove d.socket with Sys_error _ -> ()

(* VmHWM: the daemon's peak resident set, in MB *)
let peak_rss_mb d =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" d.pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc status"
        | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let call conn line =
  Client.send_raw conn line;
  match Client.recv_raw conn with
  | Some response -> response
  | None -> failwith "daemon closed the connection"

(* Closed loop: client [c] of [clients] sends stream indices c, c +
   clients, c + 2 clients, ... until [seconds] have passed; requests in
   flight at the deadline finish and count. Each client is a thread with
   its own connection. Returns every record and the start time. *)
let drive ~socket ~clients ~seconds gen =
  let conns = Array.init clients (fun _ -> Client.connect (Client.Unix_socket socket)) in
  let start = Clock.now_ns () in
  let deadline = start + int_of_float (seconds *. 1e9) in
  let out = Array.make clients (Ok []) in
  let client c () =
    let recs = ref [] and k = ref 0 in
    out.(c) <-
      (match
         while Clock.now_ns () < deadline do
           let req = gen ((!k * clients) + c) in
           let line = Workload.line req in
           let t0 = Clock.now_ns () in
           let response = call conns.(c) line in
           let t1 = Clock.now_ns () in
           recs := { Check.req; response; latency_ns = t1 - t0; done_ns = t1 } :: !recs;
           incr k
         done
       with
      | () -> Ok (List.rev !recs)
      | exception e -> Error e)
  in
  List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ()));
  Array.iter Client.close conns;
  let recs = Array.map (function Ok r -> r | Error e -> raise e) out in
  (Array.of_list (List.concat (Array.to_list recs)), start)

(* A path into the daemon's [stats] object *)
let stat path j =
  let v = List.fold_left (fun j k -> Option.get (Json.member k j)) j path in
  Option.get (Json.to_float v)
