(* Temp-file-plus-rename writes.  The temporary lives in the target's
   own directory (rename is only atomic within one filesystem), carries
   the writer's pid so concurrent writers of different shards never
   collide, and is fsynced before the rename so the rename can never
   publish unwritten data. *)

let fsync_dir dir =
  (* Persist the rename itself.  Directory fsync is best-effort: some
     filesystems refuse it, and the data file is already safe. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let write path f =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    try Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  let oc = Unix.out_channel_of_descr fd in
  (match f oc with
  | () ->
      flush oc;
      Unix.fsync fd;
      close_out oc
  | exception e ->
      (try close_out oc with _ -> ());
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Unix.rename tmp path;
  fsync_dir (Filename.dirname path)

let write_string path s = write path (fun oc -> output_string oc s)
