let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let percentile xs q =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = int_of_float (Float.ceil pos) in
      if lo = hi then a.(lo)
      else begin
        let w = pos -. float_of_int lo in
        (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)
      end

let binomial_confidence ~successes ~trials =
  if trials <= 0 then (0.0, 1.0)
  else begin
    let z = 1.959963984540054 in
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1.0 +. (z2 /. n) in
    let center = (p +. (z2 /. (2.0 *. n))) /. denom in
    let half =
      z /. denom *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n)))
    in
    (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))
  end
