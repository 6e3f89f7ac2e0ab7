open Relalg

type config = {
  rank_aware : bool;
  first_rows : bool;
}

let default_config = { rank_aware = true; first_rows = true }

type stats = {
  entries : int;
  retained : int;
  generated : int;
}

type result = {
  memo : Memo.t;
  best : Memo.subplan option;
  stats : stats;
  interesting : Interesting_orders.interesting_order list;
}

let relation_array env = Array.of_list env.Cost_model.query.Logical.relations

let relation_mask env names =
  let rels = relation_array env in
  let mask = ref 0 in
  Array.iteri
    (fun i (b : Logical.base) ->
      if List.mem b.Logical.name names then mask := !mask lor (1 lsl i))
    rels;
  !mask

let names_of_mask rels mask =
  let acc = ref [] in
  Array.iteri
    (fun i (b : Logical.base) ->
      if mask land (1 lsl i) <> 0 then acc := b.Logical.name :: !acc)
    rels;
  List.rev !acc

let popcount mask =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go mask 0

(* The order property an interesting order asks for. *)
let order_of_interesting (o : Interesting_orders.interesting_order) =
  { Plan.expr = o.Interesting_orders.expr; direction = o.Interesting_orders.direction }

(* Wrap a base access with the relation's filter, if any. *)
let with_filter (b : Logical.base) plan =
  match b.Logical.filter with
  | None -> plan
  | Some pred -> Plan.Filter { pred; input = plan }

let access_plans env config interesting (b : Logical.base) =
  let name = b.Logical.name in
  let info = Storage.Catalog.table env.Cost_model.catalog name in
  let relevant = Interesting_orders.for_subset interesting [ name ] in
  let plans = ref [ with_filter b (Plan.Table_scan { table = name }) ] in
  (* Index scans, in each direction some interesting order requests. *)
  List.iter
    (fun (ix : Storage.Catalog.index_info) ->
      List.iter
        (fun (o : Interesting_orders.interesting_order) ->
          if Expr.equal o.Interesting_orders.expr ix.Storage.Catalog.ix_key then begin
            let desc = o.Interesting_orders.direction = Interesting_orders.Desc in
            if config.rank_aware || not desc then
              plans :=
                with_filter b
                  (Plan.Index_scan
                     {
                       table = name;
                       index = ix.Storage.Catalog.ix_name;
                       key = ix.Storage.Catalog.ix_key;
                       desc;
                     })
                :: !plans
          end)
        relevant)
      info.Storage.Catalog.tb_indexes;
  (* Eager sort enforcers. One is glued for every interesting order even
     when an access path already provides it: the blocking sort alternative
     has different cost behaviour than e.g. an unclustered index scan, and
     Section 3.3's k*-based pruning is what decides which survives. *)
  List.iter
    (fun (o : Interesting_orders.interesting_order) ->
      let want = order_of_interesting o in
      let ranked_order = o.Interesting_orders.direction = Interesting_orders.Desc in
      if config.rank_aware || not ranked_order then
        plans :=
          Plan.Sort
            { order = want; input = with_filter b (Plan.Table_scan { table = name }) }
          :: !plans)
    relevant;
  !plans

(* A single-relation subplan usable as the probed side of an index
   nested-loops join: find an index on the join column. *)
let inl_index env (cond : Logical.join_pred) =
  Storage.Catalog.find_index_on_expr env.Cost_model.catalog
    ~table:cond.Logical.right_table
    (Expr.col ~relation:cond.Logical.right_table cond.Logical.right_column)

let residual_pred residuals =
  match residuals with
  | [] -> None
  | js ->
      let conj =
        List.map
          (fun (j : Logical.join_pred) ->
            Expr.(
              col ~relation:j.Logical.left_table j.Logical.left_column
              = col ~relation:j.Logical.right_table j.Logical.right_column))
          js
      in
      Some
        (List.fold_left
           (fun acc e -> Expr.And (acc, e))
           (List.hd conj) (List.tl conj))

(* What every candidate over one partition L | R shares: the join
   condition, the orders its algorithms ask of their inputs (keyed once
   here, not once per pair of inputs) and the partial scores. *)
type split = {
  cond : Logical.join_pred;
  residual : Expr.t option;  (* the other join predicates of the partition *)
  right_singleton : bool;
  lkey : Plan.order_key option;  (* left input ascending on its join key *)
  rkey : Plan.order_key option;
  lscore : Expr.t option;
  rscore : Expr.t option;
  lranked : Plan.order_key option;  (* left input descending on [lscore] *)
  rranked : Plan.order_key option;
  rank_join : (Expr.t list * (string * string) list) option;
      (* the HRJN candidate's scores and keys, when both sides are scored *)
}

let split_of query ~left_names ~right_names ~right_singleton
    (cond : Logical.join_pred) residuals =
  let asc relation column =
    Some
      (Plan.order_key
         { Plan.expr = Expr.col ~relation column; direction = Interesting_orders.Asc })
  in
  let ranked =
    Option.map (fun e ->
        Plan.order_key { Plan.expr = e; direction = Interesting_orders.Desc })
  in
  let lscore = Logical.partial_scoring_expr query left_names in
  let rscore = Logical.partial_scoring_expr query right_names in
  {
    cond;
    residual = residual_pred residuals;
    right_singleton;
    lkey = asc cond.Logical.left_table cond.Logical.left_column;
    rkey = asc cond.Logical.right_table cond.Logical.right_column;
    lscore;
    rscore;
    lranked = ranked lscore;
    rranked = ranked rscore;
    rank_join =
      (match lscore, rscore with
      | Some l, Some r ->
          Some
            ( [ l; r ],
              [
                (cond.Logical.left_table, cond.Logical.left_column);
                (cond.Logical.right_table, cond.Logical.right_column);
              ] )
      | _ -> None);
  }

(* Candidate join plans combining a left and right subplan. *)
let join_candidates env config query sp (pl : Memo.subplan) (pr : Memo.subplan) =
  let wrap join =
    match sp.residual with
    | None -> join
    | Some pred -> Plan.Filter { pred; input = join }
  in
  let mk algo ?left_score ?right_score () =
    wrap
      (Plan.Join
         { algo; cond = sp.cond; left = pl.Memo.plan; right = pr.Memo.plan; left_score; right_score })
  in
  let candidates = ref [ mk Plan.Hash (); mk Plan.Nested_loops () ] in
  (* Index nested loops: right side must be a bare access of a single
     relation with an index on the join column. *)
  (if sp.right_singleton then
     match pr.Memo.plan with
     | Plan.Table_scan _ | Plan.Filter { input = Plan.Table_scan _; _ } -> (
         match inl_index env sp.cond with
         | Some _ -> candidates := mk Plan.Index_nl () :: !candidates
         | None -> ())
     | _ -> ());
  (* Sort-merge: both inputs ordered on their join keys. *)
  if
    Plan.key_satisfies ~have:pl.Memo.key ~want:sp.lkey
    && Plan.key_satisfies ~have:pr.Memo.key ~want:sp.rkey
  then candidates := mk Plan.Sort_merge () :: !candidates;
  (* Rank joins (Section 3.2 join eligibility / choices / order). *)
  if config.rank_aware && Logical.is_ranking query then begin
    let ranked_on want (s : Memo.subplan) =
      Option.is_some want && Plan.key_satisfies ~have:s.Memo.key ~want
    in
    (* HRJN needs sorted access on both inputs. *)
    (match sp.rank_join with
    | Some (scores, keys) when ranked_on sp.lranked pl && ranked_on sp.rranked pr ->
        candidates :=
          wrap
            (Plan.Rank_join
               { inputs = [ pl.Memo.plan; pr.Memo.plan ]; scores; keys })
          :: !candidates
    | _ -> ());
    (* NRJN needs sorted access on the outer (left) input only. *)
    if ranked_on sp.lranked pl then
      candidates :=
        mk Plan.Nrjn ?left_score:sp.lscore ?right_score:sp.rscore ()
        :: !candidates
  end;
  !candidates

(* Observation hook: called for every subplan the MEMO retains (after
   pruning), with its entry key. The planlint emit-time assertion mode
   registers here; the default is a no-op. A ref keeps the dependency
   arrow pointing from the lint library into core, not the reverse. *)
let retain_hook : (Cost_model.env -> key:int -> Memo.subplan -> unit) ref =
  ref (fun _ ~key:_ _ -> ())

let run ?(config = default_config) env =
  let query = env.Cost_model.query in
  let rels = relation_array env in
  let n = Array.length rels in
  let interesting = Interesting_orders.derive ~rank_aware:config.rank_aware query in
  let memo = Memo.create () in
  let add ?children key plan =
    let sp = Memo.subplan_of ?children env plan in
    if Memo.add memo ~first_rows:config.first_rows ~key sp then
      !retain_hook env ~key sp
  in
  (* Level 1: access paths. *)
  Array.iteri
    (fun i b -> List.iter (add (1 lsl i)) (access_plans env config interesting b))
    rels;
  (* Levels 2..n: joins of connected subsets. *)
  for mask = 1 to (1 lsl n) - 1 do
    if popcount mask >= 2 then begin
      let names = names_of_mask rels mask in
      if Logical.connected query names then begin
        (* Enumerate partitions L | R: iterate proper non-empty submasks. *)
        let sub = ref ((mask - 1) land mask) in
        while !sub > 0 do
          let l_mask = !sub and r_mask = mask land lnot !sub in
          let left_names = names_of_mask rels l_mask in
          let right_names = names_of_mask rels r_mask in
          (match Logical.joins_between query left_names right_names with
          | [] -> ()
          | cond :: residuals ->
              let split =
                split_of query ~left_names ~right_names
                  ~right_singleton:(popcount r_mask = 1) cond residuals
              in
              let pls = Memo.plans memo l_mask and prs = Memo.plans memo r_mask in
              List.iter
                (fun pl ->
                  List.iter
                    (fun pr ->
                      List.iter
                        (add ~children:[ pl; pr ] mask)
                        (join_candidates env config query split pl pr))
                    prs)
                pls);
          sub := (!sub - 1) land mask
        done;
        (* Eager enforcers: glue a sort producing each still-interesting
           order onto the cheapest (by total cost) subplan — the "Plan (a)"
           alternative of Section 3.3 that the k* rule compares rank-join
           plans against. Always generated; pruning decides retention. *)
        let applicable = Interesting_orders.for_subset interesting names in
        let cheapest_total =
          match Memo.plans memo mask with
          | [] -> None
          | first :: rest ->
              Some
                (List.fold_left
                   (fun acc sp ->
                     if
                       sp.Memo.est.Cost_model.total_cost
                       < acc.Memo.est.Cost_model.total_cost
                     then sp
                     else acc)
                   first rest)
        in
        List.iter
          (fun o ->
            let want = order_of_interesting o in
            match cheapest_total with
            | Some cheapest
              when not
                     (Plan.key_satisfies ~have:cheapest.Memo.key
                        ~want:(Some (Plan.order_key want))) ->
                add ~children:[ cheapest ] mask
                  (Plan.Sort { order = want; input = cheapest.Memo.plan })
            | _ -> ())
          applicable
      end
    end
  done;
  (* Flat N-ary rank-join alternative (HRJN star) for shared-key star ranking
     queries: every join is over the same column name on both sides and
     every relation contributes a ranked score. *)
  let full_mask = (1 lsl n) - 1 in
  (if config.rank_aware && Logical.is_ranking query && n >= 3 then begin
     let shared_key =
       match query.Logical.joins with
       | [] -> None
       | j0 :: rest ->
           let c = j0.Logical.left_column in
           if
             String.equal c j0.Logical.right_column
             && List.for_all
                  (fun (j : Logical.join_pred) ->
                    String.equal j.Logical.left_column c
                    && String.equal j.Logical.right_column c)
                  rest
           then Some c
           else None
     in
     match shared_key with
     | None -> ()
     | Some key ->
         let per_relation =
           Array.to_list rels
           |> List.map (fun (b : Logical.base) ->
                  let name = b.Logical.name in
                  match Logical.partial_scoring_expr query [ name ] with
                  | Some score -> (
                      let want =
                        { Plan.expr = score; direction = Interesting_orders.Desc }
                      in
                      match
                        Memo.best memo ~order:want (relation_mask env [ name ])
                      with
                      | Some sp -> Some (sp, score, name)
                      | None -> None)
                  | None -> None)
         in
         if List.for_all Option.is_some per_relation then begin
           let parts = List.map Option.get per_relation in
           let children = List.map (fun (sp, _, _) -> sp) parts in
           add ~children full_mask
             (Plan.Rank_join
                {
                  inputs = List.map (fun (sp, _, _) -> sp.Memo.plan) parts;
                  scores = List.map (fun (_, s, _) -> s) parts;
                  keys = List.map (fun (_, _, t) -> (t, key)) parts;
                })
         end
   end);
  (* anyK ranked-enumeration alternative for acyclic path/star ranking
     queries. It competes with the rank-join plans through the cost model
     (large flat build cost, tiny per-result delay), so the k* rule
     arbitrates — and it is the only candidate whose stream keeps
     producing past k, the resumable sink behind cursor FETCH NEXT. *)
  (if config.rank_aware && Logical.is_ranking query then
     match Enumerate.any_k_plan query with
     | Some plan -> add full_mask plan
     | None -> ());
  let best =
    if Logical.is_ranking query then begin
      match Logical.scoring_expr query, query.Logical.k with
      | Some score, Some k -> (
          let want = { Plan.expr = score; direction = Interesting_orders.Desc } in
          match Memo.best memo ~order:want full_mask with
          | Some sp ->
              Some
                (Memo.subplan_of ~children:[ sp ] env
                   (Plan.Top_k { k; input = sp.Memo.plan }))
          | None -> (
              (* No ordered plan retained (shouldn't happen): glue a sort. *)
              match Memo.best memo full_mask with
              | Some sp ->
                  Some
                    (Memo.subplan_of ~children:[ sp ] env
                       (Plan.Top_k
                          { k; input = Plan.Sort { order = want; input = sp.Memo.plan } }))
              | None -> None))
      | _ -> Memo.best memo full_mask
    end
    else Memo.best memo full_mask
  in
  let stats =
    {
      entries = List.length (Memo.entry_keys memo);
      retained = Memo.retained memo;
      generated = Memo.generated memo;
    }
  in
  { memo; best; stats; interesting }
