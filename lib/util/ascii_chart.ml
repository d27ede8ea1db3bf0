type series = { label : string; values : float list }

let bar_chart ~title ~x_labels series =
  let width = 50 in
  List.iter
    (fun s ->
      if List.length s.values <> List.length x_labels then
        invalid_arg "Ascii_chart.bar_chart: series length mismatch")
    series;
  let buf = Buffer.create 512 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let label_width =
    List.fold_left (fun acc s -> max acc (String.length s.label)) 0 series
  in
  let x_width =
    List.fold_left (fun acc x -> max acc (String.length x)) 0 x_labels
  in
  let bar v =
    let v = Float.max 0.0 (Float.min 100.0 v) in
    let n = int_of_float (Float.round (v /. 100.0 *. float_of_int width)) in
    String.make n '#'
  in
  List.iteri
    (fun i x ->
      List.iter
        (fun s ->
          let v = List.nth s.values i in
          Buffer.add_string buf
            (Printf.sprintf "  %-*s %-*s |%-*s| %5.1f\n" x_width
               (if s == List.hd series then x else "")
               label_width s.label width (bar v) v))
        series;
      if i < List.length x_labels - 1 then Buffer.add_char buf '\n')
    x_labels;
  Buffer.contents buf

let scatter ~title ~x_label ~y_label points =
  let width = 60 and height = 12 in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  (match points with
  | [] -> Buffer.add_string buf "  (no points)\n"
  | points ->
      let fold f init sel =
        List.fold_left (fun acc p -> f acc (sel p)) init points
      in
      let x_lo = fold Float.min infinity fst
      and x_hi = fold Float.max neg_infinity fst
      and y_lo = fold Float.min infinity snd
      and y_hi = fold Float.max neg_infinity snd in
      let span lo hi = if hi -. lo < 1e-12 then 1.0 else hi -. lo in
      let x_span = span x_lo x_hi and y_span = span y_lo y_hi in
      let grid = Array.make_matrix height width ' ' in
      let clamp hi v = max 0 (min hi v) in
      List.iter
        (fun (x, y) ->
          let col =
            clamp (width - 1)
              (int_of_float
                 (((x -. x_lo) /. x_span *. float_of_int (width - 1)) +. 0.5))
          in
          let row =
            height - 1
            - clamp (height - 1)
                (int_of_float
                   (((y -. y_lo) /. y_span *. float_of_int (height - 1))
                   +. 0.5))
          in
          grid.(row).(col) <- '*')
        points;
      Buffer.add_string buf (Printf.sprintf "  %10s\n" y_label);
      for row = 0 to height - 1 do
        let label =
          if row = 0 then Printf.sprintf "%.4g" y_hi
          else if row = height - 1 then Printf.sprintf "%.4g" y_lo
          else ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  %10s |%s\n" label
             (String.init width (fun col -> grid.(row).(col))))
      done;
      Buffer.add_string buf
        (Printf.sprintf "  %10s +%s\n" "" (String.make width '-'));
      let left = Printf.sprintf "%.4g" x_lo
      and right = Printf.sprintf "%.4g" x_hi in
      let gap =
        max 1
          (width
          - String.length left
          - String.length right
          - String.length x_label)
      in
      let pad = gap / 2 in
      Buffer.add_string buf
        (Printf.sprintf "  %10s %s%s%s%s%s\n" "" left (String.make pad ' ')
           x_label
           (String.make (max 1 (gap - pad)) ' ')
           right));
  Buffer.contents buf

let sparkline values =
  match values with
  | [] -> ""
  | values ->
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      let levels = [| '_'; '.'; '-'; '~'; '^' |] in
      let pick v =
        if hi -. lo < 1e-12 then levels.(2)
        else begin
          let idx =
            int_of_float ((v -. lo) /. (hi -. lo) *. 4.0 +. 0.5)
          in
          levels.(max 0 (min 4 idx))
        end
      in
      String.init (List.length values) (fun i -> pick (List.nth values i))
