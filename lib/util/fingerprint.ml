(* A [for] loop keeps the accumulator an unboxed [Int64]; a closure
   passed to [String.iter] would box it on every byte. *)
let of_string s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  Printf.sprintf "%016Lx" !h

let of_json json = of_string (Json.to_string ~minify:true json)
