(* Rules over a captured design-service response stream.

   The subject carries the stream as raw parsed JSON (one envelope per
   emitted line, in emission order): the rules re-derive the wire
   contract from the documents themselves instead of trusting the
   daemon's encoder/decoder pair — an encoder bug cannot vouch for
   itself.  The envelope spec audited here is DESIGN.md §14. *)

module Json = Ftes_util.Json
module D = Diagnostic

let envelope_version = 1

let verdicts = [ "feasible"; "no-solution"; "infeasible"; "lint-failure"; "error" ]

let responses_exn subject =
  match subject.Subject.responses with
  | Some rs -> rs
  | None -> invalid_arg "verifier: serve rule run without a response stream"

let label i json =
  match Json.field "id" Json.to_string_value json with
  | Ok id when id <> "" -> Printf.sprintf "response %d (id %S)" i id
  | _ -> Printf.sprintf "response %d" i

(* serve/envelope: each line is a v1 envelope with id, seq, a known
   verdict and a payload object; the error field travels exactly with
   the "error" verdict, and executed payloads open with the versioned
   report header every one-shot CLI report carries. *)
let check_envelope subject =
  let rule = "serve/envelope" in
  List.concat
    (List.mapi
       (fun i json ->
         let who = label i json in
         let version =
           match Json.field "schema_version" Json.to_int json with
           | Ok v when v = envelope_version -> []
           | Ok v ->
               [ D.error ~rule "%s: envelope schema_version %d, expected %d"
                   who v envelope_version ]
           | Error e -> [ D.error ~rule "%s: %s" who e ]
         in
         let id =
           match Json.field "id" Json.to_string_value json with
           | Ok "" -> [ D.error ~rule "%s: empty id" who ]
           | Ok _ -> []
           | Error e -> [ D.error ~rule "%s: %s" who e ]
         in
         let seq =
           match Json.field "seq" Json.to_int json with
           | Ok s when s >= 0 -> []
           | Ok s -> [ D.error ~rule "%s: negative seq %d" who s ]
           | Error e -> [ D.error ~rule "%s: %s" who e ]
         in
         let verdict =
           match Json.field "verdict" Json.to_string_value json with
           | Ok v when List.mem v verdicts -> []
           | Ok v -> [ D.error ~rule "%s: unknown verdict %S" who v ]
           | Error e -> [ D.error ~rule "%s: %s" who e ]
         in
         let is_error = Json.field "verdict" Json.to_string_value json = Ok "error" in
         let error_field =
           match (Json.field "error" Json.to_string_value json, is_error) with
           | Ok "", true -> [ D.error ~rule "%s: empty error message" who ]
           | Ok _, true -> []
           | Ok _, false ->
               [ D.error ~rule
                   "%s: error message on a non-error verdict" who ]
           | Error _, true ->
               [ D.error ~rule
                   "%s: verdict \"error\" without an error message" who ]
           | Error _, false -> []
         in
         let payload =
           match Json.member "payload" json with
           | Error e -> [ D.error ~rule "%s: %s" who e ]
           | Ok (Json.Object fields) ->
               if is_error then
                 if fields = [] then []
                 else
                   [ D.error ~rule
                       "%s: error responses must carry an empty payload" who ]
               else
                 List.filter_map
                   (fun key ->
                     if List.mem_assoc key fields then None
                     else
                       Some
                         (D.error ~rule "%s: payload lacks %S" who key))
                   [ "schema_version"; "subject"; "strategy" ]
           | Ok _ ->
               [ D.error ~rule "%s: payload is not an object" who ]
         in
         version @ id @ seq @ verdict @ error_field @ payload)
       (responses_exn subject))

(* serve/order: responses are 1:1 with requests and in request order —
   seq numbers contiguous and ascending from the stream's first,
   whatever pool schedule produced them. *)
let check_order subject =
  let rule = "serve/order" in
  let seqs =
    List.mapi (fun i json -> (i, json, Json.field "seq" Json.to_int json)) (responses_exn subject)
  in
  let rec walk = function
    | (_, _, Ok a) :: ((j, json, Ok b) :: _ as rest) ->
        (if b <> a + 1 then
           [ D.error ~rule "%s: seq %d follows seq %d (want %d)"
               (label j json) b a (a + 1) ]
         else [])
        @ walk rest
    | _ :: rest -> walk rest
    | [] -> []
  in
  walk seqs

(* serve/verdict: the envelope verdict and the payload's own feasible
   claim tell one story. *)
let check_verdict subject =
  let rule = "serve/verdict" in
  List.concat
    (List.mapi
       (fun i json ->
         let who = label i json in
         match
           ( Json.field "verdict" Json.to_string_value json,
             Json.member "payload" json )
         with
         | Ok verdict, Ok payload -> (
             match Json.field "feasible" Json.to_bool payload with
             | Error _ -> []
             | Ok feasible -> (
                 match verdict with
                 | "feasible" when not feasible ->
                     [ D.error ~rule
                         "%s: verdict \"feasible\" over a payload claiming \
                          feasible=false"
                         who ]
                 | ("no-solution" | "infeasible") when feasible ->
                     [ D.error ~rule
                         "%s: verdict %S over a payload claiming \
                          feasible=true"
                         who verdict ]
                 | _ -> []))
         | _ -> [])
       (responses_exn subject))

(* serve/telemetry: per-request numbers are sane and the process-wide
   cache counters never decrease along the stream (the daemon samples
   them at batch end, so they are monotone in seq by construction —
   a decrease means the stream was reordered or forged). *)
let check_telemetry subject =
  let rule = "serve/telemetry" in
  let counters =
    [ ("queue_wait_ns", false); ("wall_ns", false);
      ("cache_problems", true) ]
  in
  (* "registry" (the recorded-walk registry behind what-if warm
     starts) postdates the first envelope version, so its absence is
     tolerated — a pre-whatif capture still audits clean. *)
  let nested =
    [ ("sfp_cache", "hits", `Required); ("sfp_cache", "misses", `Required);
      ("evals", "hits", `Required); ("evals", "misses", `Required);
      ("registry", "hits", `Optional); ("registry", "misses", `Optional) ]
  in
  let read_nested outer inner tel =
    Json.field outer (Json.field inner Json.to_int) tel
  in
  let prev = Hashtbl.create 8 in
  List.concat
    (List.mapi
       (fun i json ->
         let who = label i json in
         match Json.member "telemetry" json with
         | Error _ -> []
         | Ok tel ->
             let flat =
               List.concat_map
                 (fun (key, monotone) ->
                   match Json.field key Json.to_int tel with
                   | Error e -> [ D.error ~rule "%s: %s" who e ]
                   | Ok v ->
                       (if v < 0 then
                          [ D.error ~rule "%s: %s is negative (%d)" who key v ]
                        else [])
                       @
                       if not monotone then []
                       else
                         let last =
                           Option.value ~default:0 (Hashtbl.find_opt prev key)
                         in
                         if v < last then
                           [ D.error ~rule
                               "%s: %s fell from %d to %d along the stream"
                               who key last v ]
                         else begin
                           Hashtbl.replace prev key v;
                           []
                         end)
                 counters
             in
             let shared =
               List.concat_map
                 (fun (outer, inner, presence) ->
                   let key = outer ^ "." ^ inner in
                   match (read_nested outer inner tel, presence) with
                   | Error _, `Optional
                     when Result.is_error (Json.member outer tel) ->
                       []
                   | Error e, _ -> [ D.error ~rule "%s: %s" who e ]
                   | Ok v, _ ->
                       let last =
                         Option.value ~default:0 (Hashtbl.find_opt prev key)
                       in
                       if v < 0 then
                         [ D.error ~rule "%s: %s is negative (%d)" who key v ]
                       else if v < last then
                         [ D.error ~rule
                             "%s: %s fell from %d to %d along the stream"
                             who key last v ]
                       else begin
                         Hashtbl.replace prev key v;
                         []
                       end)
                 nested
             in
             flat @ shared)
       (responses_exn subject))

let all =
  [ Rule.make ~id:"serve/envelope"
      ~synopsis:"service responses are well-formed v1 envelopes"
      ~requires:Rule.Needs_responses check_envelope;
    Rule.make ~id:"serve/order"
      ~synopsis:"service responses are 1:1 with requests and in order"
      ~requires:Rule.Needs_responses check_order;
    Rule.make ~id:"serve/verdict"
      ~synopsis:"envelope verdicts agree with their payloads"
      ~requires:Rule.Needs_responses check_verdict;
    Rule.make ~id:"serve/telemetry"
      ~synopsis:"per-request telemetry is sane and cache counters are \
                 monotone"
      ~requires:Rule.Needs_responses check_telemetry ]
