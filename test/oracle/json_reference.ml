(* Printf-based reference for the JSON kernel of [Ftes_util.Json] and
   [Ftes_util.Fingerprint], kept only as the byte-identity oracle for
   test_codecs.ml: the renderer that formats every number and control
   character through [Printf], the parser that reads strings one byte
   at a time and every number through [float_of_string], and FNV-1a
   folded by a closure over [String.iter].  Plus [canonical_key], the
   rendered-document identity [Ftes_model.Problem_io.equal] must agree
   with. *)

type t = Ftes_util.Json.t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let to_string ?(minify = false) t =
  let buf = Buffer.create 256 in
  let pad depth = if not minify then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let newline () = if not minify then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Number x -> Buffer.add_string buf (number_to_string x)
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        newline ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            pad (depth + 1);
            emit (depth + 1) item)
          items;
        newline ();
        pad depth;
        Buffer.add_char buf ']'
    | Object [] -> Buffer.add_string buf "{}"
    | Object fields ->
        Buffer.add_char buf '{';
        newline ();
        List.iteri
          (fun i (key, value) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              newline ()
            end;
            pad (depth + 1);
            escape_string buf key;
            Buffer.add_string buf (if minify then ":" else ": ");
            emit (depth + 1) value)
          fields;
        newline ();
        pad depth;
        Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.contents buf

exception Parse_error of int * string

(* No document this project reads nests more than a handful of levels,
   and the recursive descent below costs more than linear time in the
   depth: a fixed bound turns a hostile line of brackets into an early
   error. *)
let max_depth = 512

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> error (Printf.sprintf "expected %c, found %c" c d)
    | None -> error (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    let len = String.length word in
    if !pos + len <= n && String.sub input !pos len = word then begin
      pos := !pos + len;
      value
    end
    else error ("invalid literal, expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> error "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  if !pos + 4 > n then error "truncated \\u escape";
                  let hex = String.sub input !pos 4 in
                  pos := !pos + 4;
                  let code =
                    match int_of_string_opt ("0x" ^ hex) with
                    | Some c -> c
                    | None -> error "invalid \\u escape"
                  in
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else error "non-ASCII \\u escapes are not supported"
              | _ -> error "invalid escape character");
              loop ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let rec eat () =
      match peek () with
      | Some c when is_number_char c ->
          advance ();
          eat ()
      | Some _ | None -> ()
    in
    eat ();
    let text = String.sub input start (!pos - start) in
    match float_of_string_opt text with
    | Some x when Float.is_finite x -> x
    | Some _ ->
        (* 1e999 would read as infinity, which has no JSON spelling:
           infinity travels as null (see {!number_or_null}). *)
        raise (Parse_error (start, "number out of range " ^ text))
    | None -> error ("invalid number " ^ text)
  in
  let nest depth =
    if depth >= max_depth then
      error (Printf.sprintf "nesting deeper than %d" max_depth);
    advance ();
    skip_ws ();
    depth + 1
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        let depth = nest depth in
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value depth in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | Some c -> error (Printf.sprintf "expected , or ] in list, found %c" c)
            | None -> error "unterminated list"
          in
          List (items [])
        end
    | Some '{' ->
        let depth = nest depth in
        if peek () = Some '}' then begin
          advance ();
          Object []
        end
        else begin
          let parse_field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value depth in
            (key, value)
          in
          let rec fields acc =
            let f = parse_field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (f :: acc)
            | Some '}' ->
                advance ();
                List.rev (f :: acc)
            | Some c -> error (Printf.sprintf "expected , or } in object, found %c" c)
            | None -> error "unterminated object"
          in
          Object (fields [])
        end
    | Some ('-' | '0' .. '9') -> Number (parse_number ())
    | Some c -> error (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then error "trailing characters after the document";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "JSON error at offset %d: %s" at msg)

let fingerprint s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* Two problems are the same instance exactly when their minified
   documents are the same bytes. *)
let canonical_key problem =
  to_string ~minify:true (Ftes_model.Problem_io.to_json problem)
