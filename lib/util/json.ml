type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

(* --- rendering --- *)

(* Each byte is written once and without Printf: a string that needs
   no escape goes out in one [Buffer.add_string], and numbers take the
   two paths of [number_to_string].  The bytes are exactly Printf's:
   [%.0f] for integers, [%.17g] for other numbers and [\\u%04x] for
   control characters (test_codecs checks the kernel against a Printf
   reference). *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let hex_digit d = "0123456789abcdef".[d]

let add_escaped buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf (hex_digit (Char.code c lsr 4));
      Buffer.add_char buf (hex_digit (Char.code c land 15))

let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  (* [run] is the start of the pending stretch of plain bytes. *)
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !run (i - !run);
      add_escaped buf c;
      run := i + 1
    end
  done;
  if !run = 0 then Buffer.add_string buf s
  else Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* What [Printf.sprintf "%.17g"] calls underneath. *)
external format_float : string -> float -> string = "caml_format_float"

(* Integers below 1e15 are exact in an [int], where [string_of_int]
   spells them as [%.0f] does — except [-0.0], which [%.0f] spells
   ["-0"]. *)
let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    if x = 0.0 && Float.sign_bit x then "-0" else string_of_int (int_of_float x)
  else format_float "%.17g" x

let to_string ?(minify = false) t =
  let buf = Buffer.create 256 in
  let pad depth =
    if not minify then
      for _ = 1 to depth do
        Buffer.add_string buf "  "
      done
  in
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

(* --- parsing --- *)

exception Parse_error of int * string

(* No document this project reads nests more than a handful of levels,
   and the recursive descent below costs more than linear time in the
   depth: a fixed bound turns a hostile line of brackets into an early
   error. *)
let max_depth = 512

(* The scanners index the input directly.  A string without escapes is
   one [String.sub], and a number of at most 15 digits (below 2^53, so
   exact) is read as an [int]; everything else takes the general path.
   Both fast paths return what the general path would. *)
let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let advance () = incr pos in
  let at c = !pos < n && String.unsafe_get input !pos = c in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get input !pos with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if !pos >= n then error (Printf.sprintf "expected %c, found end of input" c)
    else
      let d = String.unsafe_get input !pos in
      if d = c then advance ()
      else error (Printf.sprintf "expected %c, found %c" c d)
  in
  let literal word value =
    let len = String.length word in
    let rec same i =
      i = len || (String.unsafe_get input (!pos + i) = word.[i] && same (i + 1))
    in
    if !pos + len <= n && same 0 then begin
      pos := !pos + len;
      value
    end
    else error ("invalid literal, expected " ^ word)
  in
  (* First index at or after [i] holding a quote or a backslash, or [n]. *)
  let rec plain_until i =
    if i < n then
      match String.unsafe_get input i with
      | '"' | '\\' -> i
      | _ -> plain_until (i + 1)
    else n
  in
  let parse_escape buf =
    if !pos >= n then error "unterminated escape";
    let c = String.unsafe_get input !pos in
    advance ();
    match c with
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
    | _ -> error "invalid escape character"
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain_until start in
    if stop < n && String.unsafe_get input stop = '"' then begin
      pos := stop + 1;
      String.sub input start (stop - start)
    end
    else begin
      let buf = Buffer.create (stop - start + 16) in
      let rec loop stop =
        Buffer.add_substring buf input !pos (stop - !pos);
        pos := stop;
        if stop >= n then error "unterminated string";
        advance ();
        if String.unsafe_get input stop = '\\' then begin
          parse_escape buf;
          loop (plain_until !pos)
        end
      in
      loop stop;
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let rec eat () =
      if !pos < n then
        match String.unsafe_get input !pos with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' ->
            advance ();
            eat ()
        | _ -> ()
    in
    eat ();
    let negative = String.unsafe_get input start = '-' in
    let first = if negative then start + 1 else start in
    (* The value of the digits in [first, !pos), or -1 if another
       character is among them. *)
    let rec digits i acc =
      if i = !pos then acc
      else
        match String.unsafe_get input i with
        | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - 48)
        | _ -> -1
    in
    let width = !pos - first in
    let v = if width >= 1 && width <= 15 then digits first 0 else -1 in
    if v >= 0 then if negative then -.float_of_int v else float_of_int v
    else
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
    if !pos >= n then error "unexpected end of input";
    match String.unsafe_get input !pos with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '[' ->
        let depth = nest depth in
        if at ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value depth in
            skip_ws ();
            if !pos >= n then error "unterminated list";
            match String.unsafe_get input !pos with
            | ',' ->
                advance ();
                items (v :: acc)
            | ']' ->
                advance ();
                List.rev (v :: acc)
            | c -> error (Printf.sprintf "expected , or ] in list, found %c" c)
          in
          List (items [])
        end
    | '{' ->
        let depth = nest depth in
        if at '}' then begin
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
            if !pos >= n then error "unterminated object";
            match String.unsafe_get input !pos with
            | ',' ->
                advance ();
                fields (f :: acc)
            | '}' ->
                advance ();
                List.rev (f :: acc)
            | c -> error (Printf.sprintf "expected , or } in object, found %c" c)
          in
          Object (fields [])
        end
    | '-' | '0' .. '9' -> Number (parse_number ())
    | c -> error (Printf.sprintf "unexpected character %c" c)
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

(* --- accessors --- *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Number _ -> "number"
  | String _ -> "string"
  | List _ -> "list"
  | Object _ -> "object"

let member key = function
  | Object fields -> (
      match List.assoc_opt key fields with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" key))
  | other -> Error (Printf.sprintf "expected an object with field %S, got %s" key (type_name other))

let to_float = function
  | Number x -> Ok x
  | other -> Error ("expected a number, got " ^ type_name other)

(* [float_of_int max_int] rounds up to 2^62 = [-. float_of_int min_int],
   so the upper bound is strict; inside the range [int_of_float] is
   exact, outside it returns garbage. *)
let to_int = function
  | Number x when Float.is_integer x ->
      if x >= float_of_int min_int && x < -.float_of_int min_int then
        Ok (int_of_float x)
      else Error (Printf.sprintf "integer %g is out of range" x)
  | Number _ -> Error "expected an integer"
  | other -> Error ("expected an integer, got " ^ type_name other)

let to_bool = function
  | Bool b -> Ok b
  | other -> Error ("expected a bool, got " ^ type_name other)

let to_list = function
  | List items -> Ok items
  | other -> Error ("expected a list, got " ^ type_name other)

let to_string_value = function
  | String s -> Ok s
  | other -> Error ("expected a string, got " ^ type_name other)

let ( let* ) = Result.bind

(* --- decoding vocabulary --- *)

let field key decode json =
  match member key json with Ok v -> decode v | Error _ as e -> e

let field_opt key decode json =
  match member key json with
  | Error _ -> Ok None
  | Ok v -> Result.map Option.some (decode v)

let nullable decode = function
  | Null -> Ok None
  | json -> Result.map Option.some (decode json)

let list_ofi decode json =
  let* items = to_list json in
  let rec build acc i = function
    | [] -> Ok (List.rev acc)
    | item :: rest ->
        let* v = decode i item in
        build (v :: acc) (i + 1) rest
  in
  build [] 0 items

let list_of decode json = list_ofi (fun _ item -> decode item) json

(* Decoded straight into the array: these carry every design and
   WCET/pfail table, so they skip the intermediate list. *)
let array_of decode dummy json =
  let* items = to_list json in
  let a = Array.make (List.length items) dummy in
  let rec fill i = function
    | [] -> Ok a
    | item :: rest ->
        let* v = decode item in
        a.(i) <- v;
        fill (i + 1) rest
  in
  fill 0 items

let float_array json = array_of to_float 0.0 json

let int_array json = array_of to_int 0 json

let checked label f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg -> Error (label ^ ": " ^ msg)

let to_float_or_inf = function Null -> Ok infinity | json -> to_float json

(* --- encoding --- *)

let int v = Number (float_of_int v)

let ints a = List (Array.to_list (Array.map int a))

let floats a = List (Array.to_list (Array.map (fun x -> Number x) a))

let number_or_null x = if Float.is_finite x then Number x else Null
