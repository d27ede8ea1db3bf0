(* Rules over the what-if blocks of a captured response stream.

   A warm-started response carries a reuse report under
   telemetry.whatif (see DESIGN.md §15).  Like the serve rules, these
   re-derive the contract from the raw parsed JSON rather than
   trusting the encoder that produced it. *)

module Json = Ftes_util.Json
module D = Diagnostic
module Reuse = Ftes_whatif.Reuse
module Delta = Ftes_whatif.Delta

let responses_exn subject =
  match subject.Subject.responses with
  | Some rs -> rs
  | None -> invalid_arg "verifier: whatif rule run without a response stream"

let label i json =
  match Json.field "id" Json.to_string_value json with
  | Ok id when id <> "" -> Printf.sprintf "response %d (id %S)" i id
  | _ -> Printf.sprintf "response %d" i

let reuse_block json =
  match Json.member "telemetry" json with
  | Error _ -> None
  | Ok tel -> (
      match Json.member "whatif" tel with Error _ -> None | Ok r -> Some r)

(* whatif/reuse: every reuse block decodes, names a known delta class,
   and its counters are internally consistent — non-negative, replayed
   prefix within the trail. *)
let check_reuse subject =
  let rule = "whatif/reuse" in
  List.concat
    (List.mapi
       (fun i json ->
         let who = label i json in
         match reuse_block json with
         | None -> []
         | Some block -> (
             match Reuse.of_json block with
             | Error e ->
                 [ D.error ~rule "%s: undecodable reuse block: %s" who e ]
             | Ok r ->
                 let known =
                   if List.mem r.Reuse.delta_class Delta.class_names then []
                   else
                     [ D.error ~rule "%s: unknown delta class %S" who
                         r.Reuse.delta_class ]
                 in
                 let negative =
                   List.filter_map
                     (fun (name, v) ->
                       if v < 0 then
                         Some
                           (D.error ~rule "%s: %s is negative (%d)" who name v)
                       else None)
                     [ ("sfp.kept", r.Reuse.sfp_kept);
                       ("sfp.dropped", r.Reuse.sfp_dropped);
                       ("evals.kept", r.Reuse.evals_kept);
                       ("evals.dropped", r.Reuse.evals_dropped);
                       ("probes.kept", r.Reuse.probes_kept);
                       ("probes.dropped", r.Reuse.probes_dropped);
                       ("steps.replayed", r.Reuse.steps_replayed);
                       ("steps.total", r.Reuse.steps_total) ]
                 in
                 let steps =
                   if r.Reuse.steps_replayed > r.Reuse.steps_total then
                     [ D.error ~rule
                         "%s: replayed prefix (%d) longer than the trail (%d)"
                         who r.Reuse.steps_replayed r.Reuse.steps_total ]
                   else []
                 in
                 known @ negative @ steps))
       (responses_exn subject))

(* whatif/verdict: a warm-started response still tells the optimize
   story — verdict feasible or no-solution, and a feasible payload
   carries the explored count the bit-identity property pins. *)
let check_verdict subject =
  let rule = "whatif/verdict" in
  List.concat
    (List.mapi
       (fun i json ->
         let who = label i json in
         match reuse_block json with
         | None -> []
         | Some _ ->
             let verdict =
               match Json.field "verdict" Json.to_string_value json with
               | Ok ("feasible" | "no-solution") -> []
               | Ok v ->
                   [ D.error ~rule
                       "%s: warm-started response with verdict %S (want \
                        feasible or no-solution)"
                       who v ]
               | Error e -> [ D.error ~rule "%s: %s" who e ]
             in
             let explored =
               match
                 ( Json.field "verdict" Json.to_string_value json,
                   Json.member "payload" json )
               with
               | Ok "feasible", Ok payload -> (
                   match Json.field "explored" Json.to_int payload with
                   | Ok n when n >= 1 -> []
                   | Ok n ->
                       [ D.error ~rule
                           "%s: feasible warm payload explored %d \
                            architectures (want >= 1)"
                           who n ]
                   | Error e -> [ D.error ~rule "%s: %s" who e ])
               | _ -> []
             in
             verdict @ explored)
       (responses_exn subject))

let all =
  [ Rule.make ~id:"whatif/reuse"
      ~synopsis:"warm-start reuse blocks are well-formed and consistent"
      ~requires:Rule.Needs_responses check_reuse;
    Rule.make ~id:"whatif/verdict"
      ~synopsis:"warm-started responses carry optimize verdicts and explored \
                 counts"
      ~requires:Rule.Needs_responses check_verdict ]
