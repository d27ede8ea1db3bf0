type edge = { src : int; dst : int; transmission_ms : float }

type t = {
  n : int;
  edges : edge list;
  succs : edge list array; (* by src, insertion order *)
  preds : edge list array; (* by dst, insertion order *)
  in_deg : int array;
  topo : int array;
  (* Successor adjacency in compressed-sparse-row form, mirroring
     [succs] element for element: the out-edges of [u] occupy indices
     [succ_off.(u) .. succ_off.(u+1) - 1] of [succ_dst]/[succ_tx].
     The flat arrays keep the hot graph walks (scheduler release,
     WCET bottom levels) on contiguous memory instead of chasing
     3-word list cells. *)
  succ_off : int array;
  succ_dst : int array;
  succ_tx : float array;
}

let compute_topological_order n succs preds =
  let in_deg = Array.map List.length preds in
  (* Kahn's algorithm with a sorted frontier so the order is canonical. *)
  let module IS = Set.Make (Int) in
  let frontier = ref IS.empty in
  Array.iteri (fun i d -> if d = 0 then frontier := IS.add i !frontier) in_deg;
  let order = Array.make n 0 in
  let rec loop filled =
    match IS.min_elt_opt !frontier with
    | None -> filled
    | Some u ->
        frontier := IS.remove u !frontier;
        order.(filled) <- u;
        List.iter
          (fun e ->
            in_deg.(e.dst) <- in_deg.(e.dst) - 1;
            if in_deg.(e.dst) = 0 then frontier := IS.add e.dst !frontier)
          succs.(u);
        loop (filled + 1)
  in
  if loop 0 < n then invalid_arg "Task_graph.make: graph has a cycle";
  order

let make ~n edges =
  if n < 0 then invalid_arg "Task_graph.make: negative process count";
  let succs = Array.make n [] and preds = Array.make n [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
        invalid_arg "Task_graph.make: edge endpoint out of range";
      if e.src = e.dst then invalid_arg "Task_graph.make: self-loop";
      if not (Float.is_finite e.transmission_ms) || e.transmission_ms < 0.0 then
        invalid_arg "Task_graph.make: invalid transmission time";
      if Hashtbl.mem seen (e.src, e.dst) then
        invalid_arg "Task_graph.make: duplicate edge";
      Hashtbl.add seen (e.src, e.dst) ();
      succs.(e.src) <- e :: succs.(e.src);
      preds.(e.dst) <- e :: preds.(e.dst))
    edges;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  let topo = compute_topological_order n succs preds in
  let succ_off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    succ_off.(u + 1) <- succ_off.(u) + List.length succs.(u)
  done;
  let m = succ_off.(n) in
  let succ_dst = Array.make m 0 in
  let succ_tx = Array.make m 0.0 in
  Array.iteri
    (fun u l ->
      let i = ref succ_off.(u) in
      List.iter
        (fun e ->
          succ_dst.(!i) <- e.dst;
          succ_tx.(!i) <- e.transmission_ms;
          incr i)
        l)
    succs;
  { n; edges; succs; preds; in_deg = Array.map List.length preds; topo;
    succ_off; succ_dst; succ_tx }

let n t = t.n
let edges t = t.edges
let n_edges t = List.length t.edges
let succs t i = t.succs.(i)

let succ_offsets t = t.succ_off
let succ_dsts t = t.succ_dst
let succ_txs t = t.succ_tx
let preds t i = t.preds.(i)
let in_degree t i = t.in_deg.(i)

let in_degrees_into t dst = Array.blit t.in_deg 0 dst 0 t.n
let out_degree t i = List.length t.succs.(i)

let sources t =
  List.filter (fun i -> in_degree t i = 0) (List.init t.n Fun.id)

let sinks t =
  List.filter (fun i -> out_degree t i = 0) (List.init t.n Fun.id)

let topological_order t = Array.copy t.topo

(* Longest start-to-end distance from each process, over the reversed
   topological order. *)
let bottom_levels t ~exec ~comm =
  let bl = Array.make t.n 0.0 in
  for idx = t.n - 1 downto 0 do
    let u = t.topo.(idx) in
    let tail =
      List.fold_left
        (fun acc e -> Float.max acc (comm e +. bl.(e.dst)))
        0.0 t.succs.(u)
    in
    bl.(u) <- exec u +. tail
  done;
  bl

(* Monomorphic bottom-level pass for the list scheduler: [exec p] is
   [wcet.(p)] and [comm] zeroes same-member edges, with no closure
   indirection per edge.  It walks the CSR mirror of [succs] in the
   same element order, with the running maximum in a local (unboxed)
   ref: [if v > best] against an accumulator starting at [0.0] is
   [Float.max] on these inputs — all finite, and a [-0.] candidate can
   never displace the non-negative accumulator — so each entry is
   bit-identical to the closure-based [bottom_levels] fold.  Every
   index is written, in reverse topological order, before any of its
   predecessors reads it, so [out] needs no clearing. *)
let bottom_levels_wcet t ~wcet ~mapping ~out =
  let off = t.succ_off and dst = t.succ_dst and tx = t.succ_tx in
  for idx = t.n - 1 downto 0 do
    let u = t.topo.(idx) in
    let mu = mapping.(u) in
    let best = ref 0.0 in
    for i = off.(u) to off.(u + 1) - 1 do
      let d = dst.(i) in
      let c = if mapping.(d) = mu then 0.0 else tx.(i) in
      let v = c +. out.(d) in
      if v > !best then best := v
    done;
    out.(u) <- wcet.(u) +. !best
  done

let longest_path t ~exec ~comm =
  let bl = bottom_levels t ~exec ~comm in
  Array.fold_left Float.max 0.0 bl

let critical_path t ~exec ~comm =
  if t.n = 0 then []
  else begin
    let bl = bottom_levels t ~exec ~comm in
    let start = ref 0 in
    Array.iteri (fun i v -> if v > bl.(!start) then start := i) bl;
    let rec follow u acc =
      let acc = u :: acc in
      (* The critical successor realizes bl.(u) = exec u + comm + bl.(dst). *)
      let next =
        List.fold_left
          (fun best e ->
            let v = comm e +. bl.(e.dst) in
            match best with
            | Some (_, bv) when bv >= v -> best
            | _ -> Some (e.dst, v))
          None t.succs.(u)
      in
      match next with
      | Some (d, v) when Float.abs (bl.(u) -. exec u -. v) < 1e-9 ->
          follow d acc
      | Some _ | None -> List.rev acc
    in
    follow !start []
  end

let components t =
  let parent = Array.init t.n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter (fun e -> union e.src e.dst) t.edges;
  let groups = Hashtbl.create 16 in
  for i = t.n - 1 downto 0 do
    let r = find i in
    let cur = Option.value ~default:[] (Hashtbl.find_opt groups r) in
    Hashtbl.replace groups r (i :: cur)
  done;
  Hashtbl.fold (fun _ procs acc -> procs :: acc) groups []
  |> List.sort (fun a b -> compare (List.hd a) (List.hd b))

let to_dot t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph G {\n  rankdir=TB;\n";
  for i = 0 to t.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  p%d [label=\"P%d\"];\n" i (i + 1))
  done;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  p%d -> p%d [label=\"%.3g ms\"];\n" e.src e.dst
           e.transmission_ms))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
