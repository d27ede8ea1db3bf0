type incumbent = {
  members : int array;
  levels : int array;
  reexecs : int array;
  mapping : int array;
  cost : float;
  schedule_length_ms : float;
}

type arch_verdict = Unreliable of int | Deadline of float

type prune =
  | Cost_bound of {
      prefix : int array;
      lower_bound : float;
      incumbent_cost : float;
    }
  | Arch_infeasible of {
      prefix : int array;
      subtree : bool;
      verdict : arch_verdict;
    }
  | Symmetry of { prefix : int array; skipped : int; canonical : int }

type counters = {
  expanded : int;
  closed : int;
  evaluated : int;
  pruned_cost : int;
  pruned_arch : int;
  pruned_symmetry : int;
  pruned_levels : int;
  pruned_mappings : int;
}

type t = {
  summary : Preflight.summary;
  kmax : int;
  search_space : float;
  represented_subsets : float;
  heuristic_cost : float;
  optimal_cost : float;
  incumbent : incumbent option;
  counters : counters;
  prunes : prune list;
}

let of_run ~problem ~kmax ~search_space ~represented_subsets ~heuristic_cost
    ~incumbent ~counters ~prunes =
  { summary = Preflight.summary_of_problem problem;
    kmax;
    search_space;
    represented_subsets;
    heuristic_cost;
    optimal_cost =
      (match incumbent with Some i -> i.cost | None -> infinity);
    incumbent;
    counters;
    prunes }

let gap t =
  if Float.is_finite t.heuristic_cost && Float.is_finite t.optimal_cost
     && t.optimal_cost > 0.0
  then Some ((t.heuristic_cost -. t.optimal_cost) /. t.optimal_cost)
  else None

let members_to_string prefix =
  "{"
  ^ String.concat "," (List.map string_of_int (Array.to_list prefix))
  ^ "}"

let prune_to_string = function
  | Cost_bound { prefix; lower_bound; incumbent_cost } ->
      Printf.sprintf "cost-bound below %s: completions cost >= %g > incumbent %g"
        (members_to_string prefix) lower_bound incumbent_cost
  | Arch_infeasible { prefix; subtree; verdict = Unreliable proc } ->
      Printf.sprintf "%s %s: process %d has no admissible assignment"
        (if subtree then "subtree below" else "architecture")
        (members_to_string prefix) proc
  | Arch_infeasible { prefix; subtree; verdict = Deadline lb } ->
      Printf.sprintf "%s %s: schedule length >= %g ms exceeds the deadline"
        (if subtree then "subtree below" else "architecture")
        (members_to_string prefix) lb
  | Symmetry { prefix; skipped; canonical } ->
      Printf.sprintf
        "subtree %s+{%d} dominated: node %d is identical to unchosen node %d"
        (members_to_string prefix) skipped skipped canonical
