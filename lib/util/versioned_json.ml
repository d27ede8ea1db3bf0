let field v = ("schema_version", Json.int v)

let check ~what ~accept_v0 ~on_warning ~current = function
  | Json.Object fields -> (
      match List.assoc_opt "schema_version" fields with
      | None ->
          on_warning
            (Printf.sprintf
               "%s has no \"schema_version\" field; reading it as the \
                deprecated v0 format (re-export to upgrade to v%d)"
               what current);
          Ok ()
      | Some v -> (
          match Json.to_int v with
          | Error e -> Error ("schema_version: " ^ e)
          | Ok v when v = current || (accept_v0 && v = 0) -> Ok ()
          | Ok v ->
              Error
                (if accept_v0 then
                   Printf.sprintf
                     "unsupported %s schema_version %d (this build reads \
                      versions 0 and %d; a newer ftes probably wrote this \
                      file)"
                     what v current
                 else
                   Printf.sprintf
                     "unsupported %s schema_version %d (this build reads \
                      v%d; a newer ftes probably wrote this file)"
                     what v current)))
  | _ -> Error (what ^ ": expected a JSON object")

let decode ?(what = "document") ?(accept_v0 = true) ?on_warning ~current body
    json =
  let on_warning =
    match on_warning with
    | Some f -> f
    | None -> Printf.eprintf "%s: warning: %s\n%!" what
  in
  match check ~what ~accept_v0 ~on_warning ~current json with
  | Ok () -> body json
  | Error _ as e -> e

let load decode path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e (* already names the file *)
  | text ->
      Result.map_error
        (fun e -> path ^ ": " ^ e)
        (Result.bind (Json.of_string text) decode)

let save path json =
  let text = Json.to_string json in
  Atomic_file.write path (fun oc ->
      output_string oc text;
      output_char oc '\n')
