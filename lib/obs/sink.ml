module Json = Ftes_util.Json

(* One record per *completed* span.  Emitting at completion (rather
   than begin/end event pairs) keeps the JSONL trace trivially
   well-formed: nesting is recoverable from (domain, depth, start,
   duration) alone, and a crash loses at most the spans still open. *)
type event = {
  name : string;
  domain : int;
  depth : int;
  parent : string option;
  start_ns : int;
  dur_ns : int;
  alloc_b : float;
}

type t =
  | Null
  | Jsonl of { oc : out_channel; mutex : Mutex.t }
  | Memory of { events : event list ref; mutex : Mutex.t }

let null = Null

let jsonl oc = Jsonl { oc; mutex = Mutex.create () }

let memory () = Memory { events = ref []; mutex = Mutex.create () }

let is_null = function Null -> true | Jsonl _ | Memory _ -> false

let event_to_json e =
  Json.Object
    [ ("name", Json.String e.name);
      ("domain", Json.int e.domain);
      ("depth", Json.int e.depth);
      ( "parent",
        match e.parent with Some p -> Json.String p | None -> Json.Null );
      ("start_ns", Json.int e.start_ns);
      ("dur_ns", Json.int e.dur_ns);
      ("alloc_b", Json.Number e.alloc_b) ]

let event_of_json json =
  let open Json in
  let* name = field "name" to_string_value json in
  let* domain = field "domain" to_int json in
  let* depth = field "depth" to_int json in
  let* parent = field "parent" (nullable to_string_value) json in
  let* start_ns = field "start_ns" to_int json in
  let* dur_ns = field "dur_ns" to_int json in
  let* alloc_b = field "alloc_b" to_float json in
  Ok { name; domain; depth; parent; start_ns; dur_ns; alloc_b }

let locked mutex f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let emit t event =
  match t with
  | Null -> ()
  | Jsonl { oc; mutex } ->
      let line = Json.to_string ~minify:true (event_to_json event) in
      locked mutex (fun () ->
          output_string oc line;
          output_char oc '\n')
  | Memory { events; mutex } ->
      locked mutex (fun () -> events := event :: !events)

let memory_events t =
  match t with
  | Memory { events; mutex } -> locked mutex (fun () -> List.rev !events)
  | Null | Jsonl _ -> []
