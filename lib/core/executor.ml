open Relalg

type rank_node_stats = {
  label : string;
  nrjn : bool;
  stats : Exec.Exec_stats.t;
}

type nary_node_stats = {
  nary_label : string;
  nary_stats : Exec.Exec_stats.t;
}

type profile = {
  p_plan : Plan.t;
  p_node : Exec.Metrics.node;
  p_children : profile list;
}

type run_result = {
  rows : (Tuple.t * float) list;
  io : Storage.Io_stats.snapshot;
  rank_nodes : rank_node_stats list;
  nary_nodes : nary_node_stats list;
  profile : profile option;
  schema : Schema.t;
}

let find_index catalog table name =
  match
    List.find_opt
      (fun ix -> String.equal ix.Storage.Catalog.ix_name name)
      (Storage.Catalog.indexes_on catalog table)
  with
  | Some ix -> ix
  | None -> invalid_arg ("Executor: unknown index " ^ name)

let score_fn schema = function
  | Some e -> Expr.compile_float schema e
  | None -> fun _ -> 0.0

(* One rank-join input. Per pulled tuple it allocates only the scored
   entry: the key is a cell read, and a score over Float cells takes
   [compile_float]'s float path. *)
let rank_input op score ~table ~column =
  let schema = op.Exec.Operator.schema in
  {
    Exec.Rank_join.stream =
      Exec.Operator.with_score (Expr.compile_float schema score) op;
    key = Expr.compile schema (Expr.col ~relation:table column);
  }

let sort_budget catalog =
  Exec.Sort.budget
    ~tuples_per_page:(Storage.Catalog.tuples_per_page catalog)
    (Storage.Catalog.pool catalog)

(* Canonical column permutation: positions sorted by (relation, name).
   Different join orders permute a plan's output columns; sorting ties by
   the canonical projection makes every plan's enumeration — and the
   oracle's — tuple-identical. Shared by the cursor layer and the by-rank
   window operators (their tie order must agree). *)
let canonical_perm schema =
  let cols = List.mapi (fun i c -> (i, c)) (Schema.columns schema) in
  let sorted =
    List.sort
      (fun ((_, a) : _ * Schema.column) ((_, b) : _ * Schema.column) ->
        match compare a.Schema.relation b.Schema.relation with
        | 0 -> String.compare a.Schema.name b.Schema.name
        | c -> c)
      cols
  in
  Array.of_list (List.map fst sorted)

let canonical_compare perm a b =
  let rec go i =
    if i >= Array.length perm then 0
    else
      match Value.compare a.(perm.(i)) b.(perm.(i)) with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

(* One-line operator name for EXPLAIN ANALYZE rows (unlike [Plan.describe],
   not recursive — the tree rendering supplies the structure). *)
let node_label = function
  | Plan.Table_scan { table } -> "TableScan " ^ table
  | Plan.Index_scan { table; index; desc; _ } ->
      Printf.sprintf "IndexScan %s.%s %s" table index
        (if desc then "DESC" else "ASC")
  | Plan.Rank_index_scan { table; index; lo; hi; dense; _ } ->
      Printf.sprintf "RankIndexScan %s %s%d..%d%s" table
        (if dense then "dense " else "")
        lo hi
        (match index with Some nm -> " via " ^ nm | None -> " via sort")
  | Plan.Remote_scan { shard; _ } -> Printf.sprintf "RemoteScan shard=%d" shard
  | Plan.Gather_merge { inputs; _ } ->
      Printf.sprintf "GatherRemote[%d]" (List.length inputs)
  | Plan.Filter _ -> "Filter"
  | Plan.Sort { order; _ } ->
      Printf.sprintf "Sort %s"
        (if order.Plan.direction = Interesting_orders.Desc then "DESC" else "ASC")
  | Plan.Top_k { k; _ } -> Printf.sprintf "Top-%d" k
  | Plan.Join { algo; _ } -> Plan.algo_name algo
  | Plan.Rank_join { inputs = [ _; _ ]; _ } -> "HRJN"
  | Plan.Rank_join { inputs; _ } ->
      Printf.sprintf "HRJN*[%d]" (List.length inputs)
  | Plan.Any_k { inputs; _ } ->
      Printf.sprintf "AnyK[%d]" (List.length inputs)

exception Interrupted

let compile ?metrics ?interrupt ?(vectorized = true) catalog plan =
  let rank_joins = ref [] in
  (* A rank-join node registers before its inputs compile, so the list is
     in plan pre-order, the order of [Propagate.rank_join_annotations]. *)
  let register plan ~nrjn stats =
    rank_joins := { label = Plan.describe plan; nrjn; stats } :: !rank_joins
  in
  (* Cooperative cancellation: when an interrupt predicate is supplied
     (per-query deadlines in the server), every operator's [next] checks it,
     so even deep blocking stages (sort runs, hash builds pulling their
     input) abandon work promptly. *)
  let guard (op : Exec.Operator.t) =
    match interrupt with
    | None -> op
    | Some should_stop ->
        let next = op.Exec.Operator.next in
        {
          op with
          Exec.Operator.next =
            (fun () -> if should_stop () then raise Interrupted else next ());
        }
  in
  (* Register the node's stats record in the metrics registry (when one was
     supplied) and wrap the operator so the I/O it causes is attributed to
     it; otherwise pass the operator through untouched. *)
  let instrument plan stats (op : Exec.Operator.t) child_profiles =
    let op = guard op in
    match metrics with
    | None -> (op, None)
    | Some m ->
        let node =
          Exec.Metrics.attach m ~stats ~label:(node_label plan)
            ~inputs:(Exec.Exec_stats.inputs stats) ()
        in
        ( Exec.Metrics.scope m node op,
          Some
            {
              p_plan = plan;
              p_node = node;
              p_children = List.filter_map Fun.id child_profiles;
            } )
  in
  let vguard (v : Exec.Vector.t) =
    match interrupt with
    | None -> v
    | Some should_stop ->
        let next = v.Exec.Vector.v_next in
        {
          v with
          Exec.Vector.v_next =
            (fun () -> if should_stop () then raise Interrupted else next ());
        }
  in
  let vinstrument plan stats (v : Exec.Vector.t) child_profiles =
    let v = vguard v in
    match metrics with
    | None -> (v, None)
    | Some m ->
        let node =
          Exec.Metrics.attach m ~stats ~label:(node_label plan)
            ~inputs:(Exec.Exec_stats.inputs stats) ()
        in
        ( Exec.Vector.scope m node v,
          Some
            {
              p_plan = plan;
              p_node = node;
              p_children = List.filter_map Fun.id child_profiles;
            } )
  in
  (* [go ctx plan]: [ctx] says whether the parent drains this subplan
     completely ([`Bulk] — sorts, hash-join sides, the root drain) or pulls
     it incrementally ([`Streaming] — rank joins, top-k heaps over ranked
     inputs, cursors). Vectorized spines only engage in bulk contexts:
     batching a stream an early-out consumer may abandon would over-read.
     The context rules here are mirrored by [Vectorize.vectorized]
     (planlint PL15 cross-checks the stored property bit against it). *)
  let rec go ctx plan : Exec.Operator.t * profile option =
    match plan with
    (* Fused vectorized top-k sink: Top_k over Sort over a vector spine
       becomes one bounded-heap drain — same rows, order, and stats totals
       as the sort + limit pair it replaces, which is why both metric nodes
       are still attached. *)
    | Plan.Top_k { k; input = Plan.Sort { order; input = sp } as sort_plan }
      when vectorized && Vectorize.spine_ok sp ->
        let sort_stats = Exec.Exec_stats.create 1 in
        let topk_stats = Exec.Exec_stats.create 1 in
        let desc = order.Plan.direction = Interesting_orders.Desc in
        let v, vprof = govec sp in
        let op =
          guard
            (Exec.Vector.fused_top_k ~sort_stats ~topk_stats
               (sort_budget catalog) ~desc ~k order.Plan.expr v)
        in
        (match metrics with
        | None -> (op, None)
        | Some m ->
            let snode =
              Exec.Metrics.attach m ~stats:sort_stats
                ~label:(node_label sort_plan) ~inputs:1 ()
            in
            let tnode =
              Exec.Metrics.attach m ~stats:topk_stats ~label:(node_label plan)
                ~inputs:1 ()
            in
            (* Inner scope wins: the drain I/O lands on the sort node, as it
               does when the serial limit pulls from the serial sort. *)
            ( Exec.Metrics.scope m tnode (Exec.Metrics.scope m snode op),
              Some
                {
                  p_plan = plan;
                  p_node = tnode;
                  p_children =
                    [
                      {
                        p_plan = sort_plan;
                        p_node = snode;
                        p_children = List.filter_map Fun.id [ vprof ];
                      };
                    ];
                } ))
    | _ when vectorized && ctx = `Bulk && Vectorize.spine_ok plan ->
        let v, prof = govec plan in
        (guard (Exec.Vector.to_operator v), prof)
    | _ -> go_serial ctx plan
  (* The vector spine compiler: only the [Vectorize.spine_ok] shapes. *)
  and govec plan : Exec.Vector.t * profile option =
    match plan with
    | Plan.Table_scan { table } ->
        let stats = Exec.Exec_stats.create 0 in
        let v =
          Exec.Vector.heap_scan ~stats (Storage.Catalog.table catalog table)
        in
        vinstrument plan stats v []
    | Plan.Filter { pred; input } ->
        let stats = Exec.Exec_stats.create 1 in
        let child, prof = govec input in
        vinstrument plan stats (Exec.Vector.filter ~stats pred child) [ prof ]
    | Plan.Join { algo = Plan.Hash; cond; left; right; _ } ->
        let stats = Exec.Exec_stats.create 2 in
        let lt = cond.Logical.left_table and lc = cond.Logical.left_column in
        let rt = cond.Logical.right_table and rc = cond.Logical.right_column in
        let lchild, lprof = govec left in
        let rchild, rprof = go `Bulk right in
        vinstrument plan stats
          (Exec.Vector.hash_join ~stats
             ~left_key:(Expr.col ~relation:lt lc)
             ~right_key:(Expr.col ~relation:rt rc)
             (sort_budget catalog) lchild rchild)
          [ lprof; rprof ]
    | _ -> invalid_arg "Executor: plan is not a vector spine"
  and go_serial ctx plan : Exec.Operator.t * profile option =
    match plan with
    | Plan.Table_scan { table } ->
        let stats = Exec.Exec_stats.create 0 in
        let op = Exec.Scan.heap ~stats (Storage.Catalog.table catalog table) in
        instrument plan stats op []
    | Plan.Index_scan { table; index; desc; _ } ->
        let stats = Exec.Exec_stats.create 0 in
        let ix = find_index catalog table index in
        let op =
          if desc then Exec.Scan.index_desc ~stats catalog ix
          else Exec.Scan.index_asc ~stats catalog ix
        in
        instrument plan stats op []
    | Plan.Rank_index_scan { table; index; score; lo; hi; dense } ->
        let stats = Exec.Exec_stats.create 0 in
        let info = Storage.Catalog.table catalog table in
        let perm = canonical_perm info.Storage.Catalog.tb_schema in
        let tie_cmp a b = canonical_compare perm a b in
        let op =
          match index with
          | Some nm ->
              let ix = find_index catalog table nm in
              Exec.Scan.rank_window ~stats ~dense catalog ix ~lo ~hi ~tie_cmp
          | None ->
              Exec.Scan.rank_window_sort ~stats ~dense info ~score ~lo ~hi
                ~tie_cmp
        in
        instrument plan stats op []
    | Plan.Remote_scan _ | Plan.Gather_merge _ ->
        (* Distributed nodes execute in the shard coordinator, which drives
           remote sessions over the line protocol; they never reach the
           local compiler. *)
        invalid_arg "Executor: distributed plan requires a shard coordinator"
    | Plan.Filter { pred; input } ->
        let stats = Exec.Exec_stats.create 1 in
        let child, prof = go ctx input in
        instrument plan stats (Exec.Basic_ops.filter ~stats pred child) [ prof ]
    | Plan.Sort { order; input } ->
        let stats = Exec.Exec_stats.create 1 in
        let desc = order.Plan.direction = Interesting_orders.Desc in
        (* A sort drains its input at open: always a bulk context below. *)
        let child, prof = go `Bulk input in
        let op =
          Exec.Sort.by_expr ~stats (sort_budget catalog) ~desc order.Plan.expr
            child
        in
        instrument plan stats op [ prof ]
    | Plan.Top_k { k; input } ->
        let stats = Exec.Exec_stats.create 1 in
        (* Over a sort the limit's pull pattern is irrelevant (the sort
           drains anyway); over a ranked streaming input the limit stops
           early, so the input must stay tuple-at-a-time. *)
        let child_ctx =
          match input with Plan.Sort _ -> ctx | _ -> `Streaming
        in
        let child, prof = go child_ctx input in
        instrument plan stats (Exec.Basic_ops.limit ~stats k child) [ prof ]
    | Plan.Rank_join { inputs; scores; keys } ->
        let stats = Exec.Exec_stats.create (List.length inputs) in
        register plan ~nrjn:false stats;
        let compiled = List.map (go `Streaming) inputs in
        let stream, stats =
          Exec.Rank_join.hrjn ~stats ~combine:( +. )
            ~inputs:
              (List.map2
                 (fun ((op, _), score) (table, column) ->
                   rank_input op score ~table ~column)
                 (List.combine compiled scores)
                 keys)
            ()
        in
        instrument plan stats
          (Exec.Operator.scored_to_plain stream)
          (List.map snd compiled)
    | Plan.Any_k { inputs; scores; keys; _ } ->
        let stats = Exec.Exec_stats.create (List.length inputs) in
        let compiled =
          List.map (go `Streaming) inputs
        in
        let profs = List.map snd compiled in
        let schemas =
          Array.of_list
            (List.map (fun (op, _) -> op.Exec.Operator.schema) compiled)
        in
        let ak_inputs =
          List.map2
            (fun (op, _) score ->
              {
                Exec.Any_k.i_op = op;
                i_score = Expr.compile_float op.Exec.Operator.schema score;
              })
            compiled scores
        in
        let ak_keys =
          List.mapi
            (fun j (p, pk, ck) ->
              (p, Expr.compile schemas.(p) pk, Expr.compile schemas.(j + 1) ck))
            keys
        in
        let out_schema =
          Array.fold_left
            (fun acc s -> match acc with None -> Some s | Some a -> Some (Schema.concat a s))
            None schemas
          |> Option.get
        in
        (* The build phase runs inside s_open, outside any next() guard —
           hand the interrupt down as the operator's tick so a deadline
           fires mid-build or mid-expansion too. *)
        let tick =
          Option.map
            (fun should_stop () -> if should_stop () then raise Interrupted)
            interrupt
        in
        let stream =
          Exec.Any_k.enumerate ~stats ?tick ~schema:out_schema ~inputs:ak_inputs
            ~keys:ak_keys ()
        in
        instrument plan stats (Exec.Operator.scored_to_plain stream) profs
    | Plan.Join { algo; cond; left; right; left_score; right_score } -> (
        let stats = Exec.Exec_stats.create 2 in
        let lt = cond.Logical.left_table and lc = cond.Logical.left_column in
        let rt = cond.Logical.right_table and rc = cond.Logical.right_column in
        let pred = Expr.(col ~relation:lt lc = col ~relation:rt rc) in
        match algo with
        | Plan.Nested_loops ->
            let lchild, lprof = go ctx left in
            let rchild, rprof = go `Bulk right in
            instrument plan stats
              (Exec.Join.nested_loops ~stats ~pred lchild rchild)
              [ lprof; rprof ]
        | Plan.Hash ->
            (* Memory-adaptive: degenerates to an in-memory hash join when
               the build side fits, spills Grace partitions otherwise.
               Both sides are fully drained, so both compile in a bulk
               context (a spine-shaped left arrives batched through the
               boundary adapter). *)
            let lchild, lprof = go `Bulk left in
            let rchild, rprof = go `Bulk right in
            instrument plan stats
              (Exec.Join.grace_hash ~stats
                 ~left_key:(Expr.col ~relation:lt lc)
                 ~right_key:(Expr.col ~relation:rt rc)
                 (sort_budget catalog) lchild rchild)
              [ lprof; rprof ]
        | Plan.Sort_merge ->
            let lchild, lprof = go ctx left in
            let rchild, rprof = go ctx right in
            instrument plan stats
              (Exec.Join.merge_only ~stats
                 ~left_key:(Expr.col ~relation:lt lc)
                 ~right_key:(Expr.col ~relation:rt rc)
                 lchild rchild)
              [ lprof; rprof ]
        | Plan.Index_nl ->
            let info = Storage.Catalog.table catalog rt in
            let ix =
              match
                Storage.Catalog.find_index_on_expr catalog ~table:rt
                  (Expr.col ~relation:rt rc)
              with
              | Some ix -> ix
              | None -> invalid_arg "Executor: INL join without index"
            in
            (* The probe replaces the right access path, so any residual
               filters wrapped around it must be re-applied to probe
               results. *)
            let rec right_preds = function
              | Plan.Filter { pred; input } -> pred :: right_preds input
              | _ -> []
            in
            let lookup =
              match right_preds right with
              | [] -> Exec.Scan.index_probe catalog ix
              | preds ->
                  let keep =
                    List.map
                      (Expr.compile_bool info.Storage.Catalog.tb_schema)
                      preds
                  in
                  fun key ->
                    List.filter
                      (fun tu -> List.for_all (fun p -> p tu) keep)
                      (Exec.Scan.index_probe catalog ix key)
            in
            let lchild, lprof = go ctx left in
            instrument plan stats
              (Exec.Join.index_nested_loops ~stats
                 ~left_key:(Expr.col ~relation:lt lc)
                 ~right_schema:info.Storage.Catalog.tb_schema
                 ~lookup
                 lchild)
              [ lprof ]
        | Plan.Nrjn ->
            register plan ~nrjn:true stats;
            let lop, lprof = go `Streaming left in
            let rop, rprof = go `Streaming right in
            let lschema = lop.Exec.Operator.schema
            and rschema = rop.Exec.Operator.schema in
            let outer =
              Exec.Operator.with_score (score_fn lschema left_score) lop
            in
            let stream, stats =
              Exec.Rank_join.nrjn ~stats ~combine:( +. ) ~pred ~outer
                ~inner:rop
                ~inner_score:(score_fn rschema right_score) ()
            in
            instrument plan stats
              (Exec.Operator.scored_to_plain stream)
              [ lprof; rprof ])
  in
  let op, profile = go `Bulk plan in
  (op, List.rev !rank_joins, profile)

(* The score a run or cursor reports per row: the plan's order
   expression when its output binds it, 0 otherwise. *)
let order_score plan schema =
  match Plan.order_of plan with
  | Some { Plan.expr; _ } when Expr.bound_by schema expr ->
      Expr.compile_float schema expr
  | _ -> fun _ -> 0.0

let run ?metrics ?interrupt ?vectorized ?fetch_limit catalog plan =
  let op, rank_joins, profile =
    compile ?metrics ?interrupt ?vectorized catalog plan
  in
  let binary n = Exec.Exec_stats.inputs n.stats = 2 in
  let rank_nodes, nary = List.partition binary rank_joins in
  let nary_nodes =
    List.map (fun n -> { nary_label = n.label; nary_stats = n.stats }) nary
  in
  let schema = op.Exec.Operator.schema in
  let score = order_score plan schema in
  let io = Storage.Catalog.io catalog in
  let before = Storage.Io_stats.snapshot io in
  let tuples =
    match fetch_limit with
    | None -> Exec.Operator.to_list op
    | Some n -> Exec.Operator.take op n
  in
  let after = Storage.Io_stats.snapshot io in
  {
    rows = List.map (fun tu -> (tu, score tu)) tuples;
    io = Storage.Io_stats.diff after before;
    rank_nodes;
    nary_nodes;
    profile;
    schema;
  }

(* -- Cursors: suspendable ranked execution ------------------------------ *)

type cursor = {
  c_schema : Schema.t;
  c_next : unit -> (Tuple.t * float) option;
  c_close : unit -> unit;
}

let rec strip_topk = function
  | Plan.Top_k { input; _ } -> strip_topk input
  | p -> p

let open_cursor ?interrupt catalog plan =
  let plan = strip_topk plan in
  (* A cursor pulls incrementally and may never be drained: batching would
     over-read, so the whole plan compiles tuple-at-a-time. *)
  let op, _, _ = compile ?interrupt ~vectorized:false catalog plan in
  let schema = op.Exec.Operator.schema in
  let score = order_score plan schema in
  let perm = canonical_perm schema in
  op.Exec.Operator.open_ ();
  let exhausted = ref false in
  let lookahead = ref None in
  let group = ref [] in
  (* Raw pull in plan order; NaN scores have no place in a ranked
     enumeration and are dropped here (the oracle drops them too). *)
  let rec raw () =
    if !exhausted then None
    else
      match op.Exec.Operator.next () with
      | None ->
          exhausted := true;
          None
      | Some tu ->
          let s = score tu in
          if Float.is_nan s then raw () else Some (tu, s)
  in
  (* Buffer one whole tie group and normalize its order: equal-score rows
     are emitted in canonical-tuple order regardless of the plan shape. *)
  let refill () =
    let first =
      match !lookahead with
      | Some e ->
          lookahead := None;
          Some e
      | None -> raw ()
    in
    match first with
    | None -> ()
    | Some (tu, s) ->
        let acc = ref [ (tu, s) ] in
        let rec more () =
          match raw () with
          | None -> ()
          | Some (tu2, s2) ->
              if Float.equal s2 s then begin
                acc := (tu2, s2) :: !acc;
                more ()
              end
              else lookahead := Some (tu2, s2)
        in
        more ();
        group :=
          List.sort (fun (a, _) (b, _) -> canonical_compare perm a b) !acc
  in
  let next () =
    match !group with
    | e :: rest ->
        group := rest;
        Some e
    | [] -> (
        refill ();
        match !group with
        | e :: rest ->
            group := rest;
            Some e
        | [] -> None)
  in
  {
    c_schema = schema;
    c_next = next;
    c_close = (fun () -> op.Exec.Operator.close ());
  }

let cursor_schema c = c.c_schema

let cursor_fetch c n =
  let acc = ref [] in
  let rec loop i =
    if i < n then
      match c.c_next () with
      | Some e ->
          acc := e :: !acc;
          loop (i + 1)
      | None -> ()
  in
  loop 0;
  List.rev !acc

let cursor_close c = c.c_close ()
