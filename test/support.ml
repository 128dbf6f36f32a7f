(* Helpers shared by the test executables. *)

(* A fresh directory under the system temp dir, unique per process and
   call. *)
let temp_dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%06x" prefix (Unix.getpid ()) (Random.bits () land 0xFFFFFF))
  in
  Unix.mkdir d 0o755;
  d

(* Recursive delete that does not follow symlinks; a missing path is
   not an error. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
