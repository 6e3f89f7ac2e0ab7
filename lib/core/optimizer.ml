let log_src = Logs.Src.create "rankopt.optimizer" ~doc:"Rank-aware optimizer tracing"

module Log = (val Logs.src_log log_src : Logs.LOG)

type k_interval = { k_lo : int; k_hi : int option }

type planned = {
  query : Logical.t;
  plan : Plan.t;
  est : Cost_model.estimate;
  stats : Enumerator.stats;
  interesting : Interesting_orders.interesting_order list;
  env : Cost_model.env;
  k_validity : k_interval;
  enumerable : bool;
}

let unbounded_validity = { k_lo = 1; k_hi = None }

let k_in_validity planned k =
  k >= planned.k_validity.k_lo
  && match planned.k_validity.k_hi with None -> true | Some hi -> k <= hi

let pp_k_interval fmt { k_lo; k_hi } =
  match k_hi with
  | None -> Format.fprintf fmt "[%d, inf)" k_lo
  | Some hi -> Format.fprintf fmt "[%d, %d]" k_lo hi

(* The k-interval on which the chosen plan stays the winner (Section 4.3's
   k* rule, generalised to the whole root candidate set). The MEMO's
   retained plans at the root entry are a sound candidate set for every k —
   pruning only discards plans dominated over the whole feasible range — so
   the winner's validity is the contiguous range of k around [k_min] on
   which re-running the final argmin (cost at k) would pick the same plan.
   Boundaries are found by bisection on the win predicate, which is
   monotone on each side of [k_min] because rank-plan costs grow with k
   while blocking plans are flat. *)
let k_validity_of env (result : Enumerator.result) (chosen : Memo.subplan) =
  let query = env.Cost_model.query in
  if not (Logical.is_ranking query) then unbounded_validity
  else
    let inner =
      match chosen.Memo.plan with Plan.Top_k { input; _ } -> input | p -> p
    in
    let full_mask = (1 lsl List.length query.Logical.relations) - 1 in
    let want =
      Option.map
        (fun score ->
          Plan.order_key { Plan.expr = score; direction = Interesting_orders.Desc })
        (Logical.scoring_expr query)
    in
    let candidates =
      List.filter
        (fun sp -> Plan.key_satisfies ~have:sp.Memo.key ~want)
        (Memo.plans result.Enumerator.memo full_mask)
    in
    match
      List.find_opt (fun sp -> sp.Memo.plan == inner) candidates, candidates
    with
    | None, _ | _, ([] | [ _ ]) -> unbounded_validity
    | Some chosen_cand, first :: rest ->
        let winner_at kf =
          (* Mirrors [Memo.best]'s fold (strict <, first wins ties) so the
             interval agrees with what a re-optimization would choose. *)
          List.fold_left
            (fun acc sp ->
              if
                sp.Memo.est.Cost_model.cost_at kf
                < acc.Memo.est.Cost_model.cost_at kf
              then sp
              else acc)
            first rest
        in
        let wins k = winner_at (float_of_int k) == chosen_cand in
        let k0 = max 1 env.Cost_model.k_min in
        if not (wins k0) then { k_lo = k0; k_hi = Some k0 }
        else
          let n_cap =
            max (k0 + 1)
              (int_of_float
                 (Float.ceil (Float.max 1.0 chosen_cand.Memo.est.Cost_model.rows)))
          in
          let hi =
            if wins n_cap then None
            else begin
              (* Largest winning k in [k0, n_cap). *)
              let lo = ref k0 and hi = ref n_cap in
              while !hi - !lo > 1 do
                let mid = !lo + ((!hi - !lo) / 2) in
                if wins mid then lo := mid else hi := mid
              done;
              Some !lo
            end
          in
          let lo =
            if wins 1 then 1
            else begin
              (* Smallest winning k in (1, k0]. *)
              let lo = ref 1 and hi = ref k0 in
              while !hi - !lo > 1 do
                let mid = !lo + ((!hi - !lo) / 2) in
                if wins mid then hi := mid else lo := mid
              done;
              !hi
            end
          in
          { k_lo = lo; k_hi = hi }

(* Observation hook: called with every statement [optimize] finishes
   planning. The planlint emit-time assertion mode registers here. *)
let planned_hook : (planned -> unit) ref = ref (fun _ -> ())

(* Rank-range queries bypass the join enumerator entirely: a single scored
   relation, no joins, no Top_k root. The only access-path decision is
   count-guided by-rank descent (when an order-statistic index keyed on the
   score exists) versus the drain-sort-slice fallback — arbitrated by cost,
   the window analogue of the k* rule. The plan is k-independent, so its
   validity interval is unbounded. *)
let plan_rank_range env query lo hi =
  let catalog = env.Cost_model.catalog in
  let base =
    match query.Logical.relations with
    | [ b ] -> b
    | _ -> failwith "Optimizer: rank range requires a single relation"
  in
  let table = base.Logical.name in
  let score =
    match Logical.scoring_expr query with
    | Some e -> e
    | None -> failwith "Optimizer: rank range requires a scored relation"
  in
  (* Exact key match only: by-rank descent and rank probes read the index's
     subtree counts, so the index must be keyed on precisely the claimed
     score (PL13's justification rule). *)
  let rank_index =
    List.find_opt
      (fun ix -> Relalg.Expr.equal ix.Storage.Catalog.ix_key score)
      (Storage.Catalog.indexes_on catalog table)
  in
  let wrap access =
    match base.Logical.filter with
    | Some pred -> Plan.Filter { pred; input = access }
    | None -> access
  in
  let dense = query.Logical.rank_dense in
  let fallback =
    wrap (Plan.Rank_index_scan { table; index = None; score; lo; hi; dense })
  in
  let candidates =
    match rank_index with
    | Some ix ->
        [
          wrap
            (Plan.Rank_index_scan
               {
                 table;
                 index = Some ix.Storage.Catalog.ix_name;
                 score;
                 lo;
                 hi;
                 dense;
               });
          fallback;
        ]
    | None -> [ fallback ]
  in
  let scored = List.map (fun p -> (p, Cost_model.estimate env p)) candidates in
  let plan, est =
    List.fold_left
      (fun ((_, be) as b) ((_, e) as c) ->
        if e.Cost_model.total_cost < be.Cost_model.total_cost then c else b)
      (List.hd scored) (List.tl scored)
  in
  Log.info (fun m ->
      m "rank window %d..%d on %s: chose %s (cost %.1f of %s)" lo hi table
        (Plan.describe plan) est.Cost_model.total_cost
        (String.concat " | "
           (List.map
              (fun (p, e) ->
                Printf.sprintf "%s=%.1f" (Plan.describe p)
                  e.Cost_model.total_cost)
              scored)));
  let p =
    {
      query;
      plan;
      est;
      stats =
        {
          Enumerator.entries = 1;
          retained = 1;
          generated = List.length scored;
        };
      interesting = [];
      env;
      k_validity = unbounded_validity;
      enumerable = false;
    }
  in
  !planned_hook p;
  p

let optimize ?(config = Enumerator.default_config) ?env catalog query =
  let env =
    match env with
    | Some e -> e
    | None ->
        Cost_model.default_env
          ~k_min:(Option.value ~default:1 query.Logical.k)
          catalog query
  in
  match query.Logical.rank_range with
  | Some (lo, hi) -> plan_rank_range env query lo hi
  | None ->
  let result = Enumerator.run ~config env in
  Log.debug (fun m ->
      m "enumerated %s: %d generated, %d retained over %d MEMO entries"
        (Format.asprintf "%a" Logical.pp query)
        result.Enumerator.stats.Enumerator.generated
        result.Enumerator.stats.Enumerator.retained
        result.Enumerator.stats.Enumerator.entries);
  match result.Enumerator.best with
  | None -> failwith "Optimizer.optimize: no plan found"
  | Some sp ->
      Log.info (fun m ->
          m "chose %s (cost %.1f, %s)" (Plan.describe sp.Memo.plan)
            sp.Memo.est.Cost_model.total_cost
            (if Plan.has_rank_join sp.Memo.plan then "rank-aware" else "traditional"));
      let plan = sp.Memo.plan in
      let p =
        {
          query;
          plan;
          est = sp.Memo.est;
          stats = result.Enumerator.stats;
          interesting = result.Enumerator.interesting;
          env;
          k_validity = k_validity_of env result sp;
          enumerable = Enumerate.eligible query plan;
        }
      in
      !planned_hook p;
      p

let rebind_k planned k =
  if k <= 0 then invalid_arg "Optimizer.rebind_k: k must be positive";
  match planned.query.Logical.k with
  | None -> planned (* unranked plan: k-independent, nothing to re-push *)
  | Some old_k when old_k = k -> planned
  | Some _ ->
      let query = { planned.query with Logical.k = Some k } in
      let plan =
        match planned.plan with
        | Plan.Top_k { input; _ } -> Plan.Top_k { k; input }
        | p -> p
      in
      let env = { planned.env with Cost_model.query; k_min = k } in
      { planned with query; plan; env; est = Cost_model.estimate env plan }

let execute ?interrupt ?vectorized ?fetch_limit catalog planned =
  Executor.run ?interrupt ?vectorized ?fetch_limit catalog planned.plan

let execute_analyzed ?vectorized ?fetch_limit catalog planned =
  (* The depth model's prediction, printed beside each rank join's
     observed depths. *)
  let propagation =
    match planned.query.Logical.k with
    | Some k when Plan.has_rank_join planned.plan ->
        Some (Propagate.run planned.env ~k planned.plan)
    | _ -> None
  in
  let metrics = Exec.Metrics.create (Storage.Catalog.io catalog) in
  let result =
    Executor.run ~metrics ?vectorized ?fetch_limit catalog planned.plan
  in
  let profile =
    match result.Executor.profile with
    | Some p -> p
    | None -> assert false (* metrics were supplied *)
  in
  (Analyze.render ~env:planned.env ?propagation profile, result)

let explain_analyze ?vectorized ?fetch_limit catalog planned =
  let tree, result = execute_analyzed ?vectorized ?fetch_limit catalog planned in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "Query: %s\n" (Format.asprintf "%a" Logical.pp planned.query));
  Buffer.add_string buf
    (Printf.sprintf
       "Rows returned: %d; total io: reads=%d writes=%d pool_hits=%d\n"
       (List.length result.Executor.rows)
       result.Executor.io.Storage.Io_stats.page_reads
       result.Executor.io.Storage.Io_stats.page_writes
       result.Executor.io.Storage.Io_stats.pool_hits);
  Buffer.add_string buf tree;
  (Buffer.contents buf, result)

let run_query ?config catalog query =
  let planned = optimize ?config catalog query in
  (planned, execute catalog planned)

let explain planned =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Format.fprintf fmt "Query: %a@." Logical.pp planned.query;
  Format.fprintf fmt "Estimated cost: %.1f I/O units, %.0f rows@."
    planned.est.Cost_model.total_cost planned.est.Cost_model.rows;
  Format.fprintf fmt "Plans: %d generated, %d retained, %d MEMO entries@."
    planned.stats.Enumerator.generated planned.stats.Enumerator.retained
    planned.stats.Enumerator.entries;
  Format.fprintf fmt "Catalog stats epoch: %d@."
    (Storage.Catalog.stats_epoch planned.env.Cost_model.catalog);
  (if Logical.is_ranking planned.query then
     Format.fprintf fmt "Plan valid for k in %a@." pp_k_interval
       planned.k_validity);
  if planned.enumerable then
    Format.fprintf fmt "Enumerable: cursor-resumable past k@.";
  if Vectorize.vectorized planned.plan then
    Format.fprintf fmt "Vectorized: batched spine with selection vectors@.";
  Format.fprintf fmt "Plan:@.%a" Plan.pp planned.plan;
  (match planned.query.Logical.k with
  | Some k when Plan.has_rank_join planned.plan ->
      Format.fprintf fmt "Depth propagation:@.%a" Propagate.pp
        (Propagate.run planned.env ~k planned.plan)
  | _ -> ());
  Format.pp_print_flush fmt ();
  Buffer.contents buf
