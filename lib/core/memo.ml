type subplan = {
  plan : Plan.t;
  est : Cost_model.estimate;
  order : Plan.order option;
  key : Plan.order_key option;
  pipelined : bool;
  vectorized : bool;
  at_k_min : float;
  at_full : float;
}

let subplan_of ?(children = []) env plan =
  (* A subtree that is one of [children] takes its stored estimate;
     anything else is costed node by node the same way. *)
  let rec child p =
    match List.find_opt (fun c -> c.plan == p) children with
    | Some c -> c.est
    | None -> Cost_model.estimate_with ~child env p
  in
  let est = Cost_model.estimate_with ~child env plan in
  let order = Plan.order_of plan in
  {
    plan;
    est;
    order;
    key = Option.map Plan.order_key order;
    pipelined = Plan.pipelined plan;
    vectorized = Vectorize.vectorized plan;
    at_k_min = est.Cost_model.cost_at (float_of_int env.Cost_model.k_min);
    at_full =
      (if est.Cost_model.k_dependent then
         est.Cost_model.cost_at (Float.max 1.0 est.Cost_model.rows)
       else est.Cost_model.total_cost);
  }

type t = {
  entries : (int, subplan list ref) Hashtbl.t;
  mutable generated : int;
}

let create () = { entries = Hashtbl.create 64; generated = 0 }

let decision_cost sp = sp.at_k_min

(* Does [a] win the cost comparison against [b] decisively — i.e. for every
   number of results that could be requested from this memo entry? *)
let cost_dominates a b =
  let open Cost_model in
  match a.est.k_dependent, b.est.k_dependent with
  | false, false -> a.est.total_cost <= b.est.total_cost
  | true, true ->
      (* Same k propagates to both: compare at the minimum (costs of rank
         plans only grow with k at the same rate family). *)
      a.at_k_min <= b.at_k_min && a.est.total_cost <= b.est.total_cost
  | true, false ->
      (* Rank plan vs blocking plan: decisive only when the rank plan wins
         even at full output (k* > na). *)
      a.at_full <= b.est.total_cost
  | false, true ->
      (* Blocking plan vs rank plan: decisive when it wins already at k_min
         (k* <= k_min; larger k only makes the rank plan dearer). *)
      a.est.total_cost <= b.at_k_min

let dominates ~first_rows a b =
  Plan.key_satisfies ~have:a.key ~want:b.key
  && ((not first_rows) || a.pipelined || not b.pipelined)
  && cost_dominates a b

let add t ~first_rows ~key sp =
  t.generated <- t.generated + 1;
  let entry =
    match Hashtbl.find_opt t.entries key with
    | Some e -> e
    | None ->
        let e = ref [] in
        Hashtbl.add t.entries key e;
        e
  in
  if List.exists (fun q -> dominates ~first_rows q sp) !entry then false
  else begin
    entry := sp :: List.filter (fun q -> not (dominates ~first_rows sp q)) !entry;
    true
  end

let plans t key =
  match Hashtbl.find_opt t.entries key with Some e -> !e | None -> []

let entry_keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.entries [])

let retained t = Hashtbl.fold (fun _ e acc -> acc + List.length !e) t.entries 0

let generated t = t.generated

let best t ?order key =
  let candidates =
    match order with
    | None -> plans t key
    | Some o ->
        let want = Some (Plan.order_key o) in
        List.filter (fun sp -> Plan.key_satisfies ~have:sp.key ~want) (plans t key)
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun acc sp -> if sp.at_k_min < acc.at_k_min then sp else acc)
           first rest)

let pp_entry fmt plans =
  List.iter
    (fun sp ->
      Format.fprintf fmt "  %-40s cost=%-10.1f %s %s@."
        (Plan.describe sp.plan) sp.est.Cost_model.total_cost
        (match sp.order with
        | None -> "order=DC"
        | Some o ->
            Format.asprintf "order=%a %s" Relalg.Expr.pp o.Plan.expr
              (match o.Plan.direction with
              | Interesting_orders.Asc -> "ASC"
              | Interesting_orders.Desc -> "DESC"))
        (if sp.pipelined then "pipelined" else "blocking"))
    plans
