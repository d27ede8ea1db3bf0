(** Crash-safe file writes: temp file + atomic rename.

    Every persistent artifact of the toolchain (problem instances,
    certificates, frontier exports, campaign checkpoints, benchmark
    CSVs) is written through {!write}: the content goes to a temporary
    file in the destination directory, is flushed and [fsync]ed, and
    only then renamed over the target.  A reader — or a process
    resuming a killed campaign — therefore sees either the previous
    complete file or the new complete file, never a torn prefix. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] creates [path ^ ".tmp.<pid>"] in the same
    directory, applies [f] to its channel, flushes, [fsync]s, renames
    it over [path] and finally syncs the
    directory so the rename itself survives a crash.  The temporary
    file is removed when [f] raises; the exception is re-raised. *)

val write_string : string -> string -> unit
(** [write_string path s] is [write path (fun oc -> output_string oc s)]. *)
