type align = Left | Right | Center

type line = Row of string list | Separator

type t = {
  headers : string list;
  columns : int;
  mutable aligns : align array;
  mutable lines : line list; (* reversed *)
}

let create ~headers =
  let columns = List.length headers in
  { headers; columns; aligns = Array.make columns Left; lines = [] }

let set_aligns t aligns =
  List.iteri (fun i a -> if i < t.columns then t.aligns.(i) <- a) aligns

let add_row t cells =
  let n = List.length cells in
  if n > t.columns then invalid_arg "Text_table.add_row: too many cells";
  let padded = cells @ List.init (t.columns - n) (fun _ -> "") in
  t.lines <- Row padded :: t.lines

let add_separator t = t.lines <- Separator :: t.lines

let pad align width s =
  let len = String.length s in
  if len >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - len) ' '
    | Right -> String.make (width - len) ' ' ^ s
    | Center ->
        let left = (width - len) / 2 in
        String.make left ' ' ^ s ^ String.make (width - len - left) ' '

let render t =
  let lines = List.rev t.lines in
  let widths = Array.make t.columns 0 in
  let measure cells =
    List.iteri
      (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c)
      cells
  in
  measure t.headers;
  List.iter (function Row cells -> measure cells | Separator -> ()) lines;
  let buf = Buffer.create 256 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_row cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad t.aligns.(i) widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  rule ();
  emit_row t.headers;
  rule ();
  List.iter (function Row cells -> emit_row cells | Separator -> rule ()) lines;
  rule ();
  Buffer.contents buf

let cell_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let cell_pct x = Printf.sprintf "%.1f" (100.0 *. x)
