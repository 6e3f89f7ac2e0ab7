(* rankcheck: a seed-deterministic differential fuzz harness.

   Each case generates random tables (duplicates, ties, skewed score
   distributions, empty relations) and a random ranking query over them,
   computes the answer with a naive oracle (materialize the full join in
   relalg, score, total-order sort, take k), then enumerates every plan the
   optimizer MEMO retains — rank-join and join-then-sort, all join orders,
   HRJN/NRJN variants, under several enumerator configurations — and
   executes each one, asserting:

   - planlint structural and estimate rules on every plan;
   - top-k score-multiset equality against the oracle;
   - per rank-join node, no over-read past an exhausted-empty input and
     observed depth within the (slackened) Theorem-2 model bound.

   Failures auto-shrink (tables row by row, then query term by term) and
   report a verbatim replay command: case [i] of [run ~seed ~cases] is
   exactly case 0 of [run ~seed:(seed + i) ~cases:1]. *)

open Relalg

type table_spec = {
  t_name : string;
  t_key_domain : int;
  t_dist : Workload.Dist.t;
  t_rows : (int * int * float) list;  (* (id, key, score) *)
}

type case = {
  c_seed : int;
  c_tables : table_spec list;
  c_query : Sqlfront.Ast.query;
}

type failure = {
  f_seed : int;
  f_reason : string;
  f_plan : string option;
  f_case : case;  (* auto-shrunk minimal counterexample *)
  f_replay : string;
}

type outcome = {
  o_cases : int;
  o_plans : int;  (* plans executed and compared across all cases *)
  o_failures : failure list;
}

(* ------------------------------------------------------------------ *)
(* Case generation                                                     *)
(* ------------------------------------------------------------------ *)

(* Query constants live on a 0.125 grid so the pretty-printed SQL ("%g")
   round-trips exactly through the repl parser. *)
let grid8 prng lo n = 0.125 *. float_of_int (lo + Rkutil.Prng.int prng n)

let gen_table prng name =
  let domain = 1 + Rkutil.Prng.int prng 6 in
  let dist =
    match Rkutil.Prng.int prng 4 with
    | 0 -> Workload.Dist.Uniform { lo = 0.0; hi = 1.0 }
    | 1 -> Workload.Dist.Gaussian { mean = 0.5; sd = 0.2 }
    | 2 -> Workload.Dist.Zipf { n = 16; alpha = 1.0 }
    | _ -> Workload.Dist.Sum_uniform { j = 2 }
  in
  let n =
    match Rkutil.Prng.int prng 12 with
    | 0 -> 0 (* empty relations are a first-class case *)
    | 1 -> 1
    | _ -> 2 + Rkutil.Prng.int prng 23
  in
  (* A third of the tables snap scores to a coarse grid, forcing ties. *)
  let snap = Rkutil.Prng.int prng 3 = 0 in
  let rows =
    List.init n (fun i ->
        let s = Workload.Dist.sample prng dist in
        let s = if snap then Float.round (s *. 4.0) /. 4.0 else s in
        (i, Rkutil.Prng.int prng domain, s))
  in
  { t_name = name; t_key_domain = domain; t_dist = dist; t_rows = rows }

let gen_case seed =
  let prng = Rkutil.Prng.create seed in
  let m = if Rkutil.Prng.int prng 3 = 0 then 3 else 2 in
  let names = List.init m (Printf.sprintf "T%d") in
  let tables = List.map (gen_table prng) names in
  let open Sqlfront.Ast in
  let col t c = Column { table = Some t; name = c } in
  let jeq a b = Compare (Eq, col a "key", col b "key") in
  let joins =
    if m = 2 then [ jeq "T0" "T1" ]
    else if Rkutil.Prng.bool prng then [ jeq "T0" "T1"; jeq "T0" "T2" ] (* star *)
    else [ jeq "T0" "T1"; jeq "T1" "T2" ] (* chain *)
  in
  let filters =
    List.filter_map
      (fun ts ->
        if Rkutil.Prng.int prng 3 <> 0 then None
        else
          match Rkutil.Prng.int prng 3 with
          | 0 ->
              Some (Compare (Ge, col ts.t_name "score", Number (grid8 prng 0 7)))
          | 1 ->
              Some
                (Compare
                   ( Eq,
                     col ts.t_name "key",
                     Number (float_of_int (Rkutil.Prng.int prng ts.t_key_domain)) ))
          | _ ->
              Some
                (Compare
                   ( Le,
                     col ts.t_name "key",
                     Number (float_of_int (Rkutil.Prng.int prng ts.t_key_domain)) )))
      tables
  in
  (* Non-negative 0.125-grid weights; each relation is ranked with high
     probability, at least one always is. *)
  let ranked =
    let flags = List.map (fun _ -> Rkutil.Prng.int prng 6 <> 0) tables in
    if List.exists Fun.id flags then flags
    else List.mapi (fun i _ -> i = 0) flags
  in
  let score_terms =
    List.concat
      (List.map2
         (fun ts r ->
           if not r then []
           else
             let w = grid8 prng 1 8 in
             if w = 1.0 then [ col ts.t_name "score" ]
             else [ Binop (Mul, Number w, col ts.t_name "score") ])
         tables ranked)
  in
  let order_expr =
    match score_terms with
    | [] -> assert false
    | first :: rest -> List.fold_left (fun acc t -> Binop (Add, acc, t)) first rest
  in
  let k = 1 + Rkutil.Prng.int prng 12 in
  let query =
    {
      select = [ Star ];
      from = names;
      where = joins @ filters;
      rank_between = None;
      rank_dense = false;
      group_by = [];
      order_by = Some (order_expr, Desc);
      limit = Some k;
      limit_param = false;
    }
  in
  { c_seed = seed; c_tables = tables; c_query = query }

(* ------------------------------------------------------------------ *)
(* Catalog materialization                                             *)
(* ------------------------------------------------------------------ *)

let table_schema () =
  Schema.of_columns
    [
      Schema.column "id" Value.Tint;
      Schema.column "key" Value.Tint;
      Schema.column "score" Value.Tfloat;
    ]

let build_catalog case =
  let cat = Storage.Catalog.create () in
  List.iter
    (fun ts ->
      let tuples =
        List.map
          (fun (i, k, s) ->
            Tuple.make [ Value.Int i; Value.Int k; Value.Float s ])
          ts.t_rows
      in
      ignore (Storage.Catalog.create_table cat ts.t_name (table_schema ()) tuples);
      (* The ranked (unclustered) score path plus a key index, mirroring
         Workload.Generator.load_scored_table. *)
      ignore
        (Storage.Catalog.create_index cat ~clustered:false
           ~name:(ts.t_name ^ "_score") ~table:ts.t_name
           ~key:(Expr.col ~relation:ts.t_name "score") ());
      ignore
        (Storage.Catalog.create_index cat ~name:(ts.t_name ^ "_key")
           ~table:ts.t_name
           ~key:(Expr.col ~relation:ts.t_name "key") ()))
    case.c_tables;
  cat

(* ------------------------------------------------------------------ *)
(* The oracle: materialize, filter, cross, filter joins, sort, take k  *)
(* ------------------------------------------------------------------ *)

let oracle_topk catalog (query : Core.Logical.t) =
  let rels =
    List.map
      (fun (b : Core.Logical.base) ->
        let info = Storage.Catalog.table catalog b.Core.Logical.name in
        let rel =
          Relation.create info.Storage.Catalog.tb_schema
            (Storage.Heap_file.to_list info.Storage.Catalog.tb_heap)
        in
        match b.Core.Logical.filter with
        | None -> rel
        | Some f -> Relation.filter f rel)
      query.Core.Logical.relations
  in
  let crossed =
    match rels with
    | [] -> invalid_arg "oracle_topk: no relations"
    | r0 :: rest -> List.fold_left Relation.cross r0 rest
  in
  let joined =
    List.fold_left
      (fun acc (j : Core.Logical.join_pred) ->
        Relation.filter
          Expr.(
            Cmp
              ( Eq,
                col ~relation:j.Core.Logical.left_table j.Core.Logical.left_column,
                col ~relation:j.Core.Logical.right_table j.Core.Logical.right_column
              ))
          acc)
      crossed query.Core.Logical.joins
  in
  let score =
    match Core.Logical.scoring_expr query with
    | Some s -> s
    | None -> invalid_arg "oracle_topk: not a ranking query"
  in
  let k = Option.value ~default:max_int query.Core.Logical.k in
  Relation.top_k ~score ~k joined

(* ------------------------------------------------------------------ *)
(* Plan space: every retained MEMO plan under several configurations   *)
(* ------------------------------------------------------------------ *)

let enumerate_plans env (query : Core.Logical.t) =
  let names =
    List.map (fun (b : Core.Logical.base) -> b.Core.Logical.name)
      query.Core.Logical.relations
  in
  let k = Option.value ~default:max_int query.Core.Logical.k in
  let want =
    Option.map
      (fun score ->
        { Core.Plan.expr = score; direction = Core.Interesting_orders.Desc })
      (Core.Logical.scoring_expr query)
  in
  (* Finish a retained full-set subplan the way the enumerator finishes its
     best plan: apply Top-k, inserting a sort when the plan's order does not
     already satisfy the score order. *)
  let finish (sp : Core.Memo.subplan) =
    if Core.Logical.is_ranking query then
      match want with
      | Some w when Core.Plan.order_satisfies ~have:sp.Core.Memo.order ~want:(Some w)
        ->
          Core.Plan.Top_k { k; input = sp.Core.Memo.plan }
      | Some w ->
          Core.Plan.Top_k
            { k; input = Core.Plan.Sort { order = w; input = sp.Core.Memo.plan } }
      | None -> sp.Core.Memo.plan
    else sp.Core.Memo.plan
  in
  let configs =
    [
      { Core.Enumerator.rank_aware = true; first_rows = true };
      { Core.Enumerator.rank_aware = true; first_rows = false };
      { Core.Enumerator.rank_aware = false; first_rows = false };
    ]
  in
  let seen = Hashtbl.create 64 in
  let plans = ref [] in
  List.iter
    (fun config ->
      let result = Core.Enumerator.run ~config env in
      let full_mask = Core.Enumerator.relation_mask env names in
      let finished =
        List.map finish (Core.Memo.plans result.Core.Enumerator.memo full_mask)
        @
        match result.Core.Enumerator.best with
        | Some sp -> [ sp.Core.Memo.plan ]
        | None -> []
      in
      List.iter
        (fun p ->
          let d = Core.Plan.describe p in
          if not (Hashtbl.mem seen d) then begin
            Hashtbl.add seen d ();
            plans := p :: !plans
          end)
        finished)
    configs;
  List.rev !plans

(* ------------------------------------------------------------------ *)
(* Per-plan assertions                                                 *)
(* ------------------------------------------------------------------ *)

let scores_close a b =
  Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

let sorted_desc scores = List.sort (fun a b -> Float.compare b a) scores

(* Score result tuples with the query's own scoring expression rather than
   trusting the executor's reported score (which reflects the plan's
   physical order expression — e.g. an unweighted index key that sorts
   identically to the weighted score). Scoring returned tuples directly is
   also the stronger check: it validates the rows, not a side channel. *)
let plan_scores score (res : Core.Executor.run_result) =
  let eval = Expr.compile_float res.Core.Executor.schema score in
  sorted_desc (List.map (fun (tu, _) -> eval tu) res.Core.Executor.rows)

(* Observed depths vs an exact Theorem-2 bound. Two rules:

   - exhausted-empty (Rule A): if one input of a rank join produced nothing
     (depth 0), the join is provably empty and the other inputs must not be
     read past the couple of pulls needed to learn that — the exact
     regression the rank-join exhaustion fix closes;
   - simulated corner bound (Rule B): for each rank-join node that finite
     top-k demand reaches, drain its input streams and compute the minimal
     corner depth d* at which the k demanded results dominate the HRJN
     threshold max_i f(top_1 .. s_i(d) .. top_m) — the depth Theorem 2
     proves sufficient. A correct rank join stops within d*; we allow
     2·d* + 8 for pull-alternation overshoot. The bound is computed from the
     node's actual streams, not from histogram estimates, so data skew and
     score/key correlation cannot produce false alarms: when fewer than k
     results exist, d* is exhaustion and a full drain is accepted. *)

(* Smallest d such that the k best join results among the combinations
   within the d^m corner dominate the threshold; returns the per-input
   depths actually reachable. Streams are (key, score) in stream
   (score-descending) order. Scores combine like the operator's: [+.]
   folded left in input order, so the threshold is bit-identical to the
   one HRJN compares against. *)
let corner_depth ~k streams =
  let m = Array.length streams in
  let sizes = Array.map Array.length streams in
  if Array.exists (( = ) 0) sizes then Array.map (min 1) sizes
  else begin
    let topk = ref [] (* best result scores so far, descending, length <= k *) in
    let add s =
      let rec ins = function
        | [] -> [ s ]
        | x :: tl -> if s > x then s :: x :: tl else x :: ins tl
      in
      topk := List.filteri (fun i _ -> i < k) (ins !topk)
    in
    let kth () =
      if List.length !topk < k then neg_infinity else List.nth !topk (k - 1)
    in
    let fold score =
      let acc = ref (score 0) in
      for i = 1 to m - 1 do
        acc := !acc +. score i
      done;
      !acc
    in
    let top i = snd streams.(i).(0) in
    let n_max = Array.fold_left max 0 sizes in
    (* Combinations entering the corner at depth dd: the first input at
       position dd - 1 is [p]; inputs before it stay below dd - 1, inputs
       after it range up to dd - 1. *)
    let enter dd p =
      let rec go i key acc =
        if i = m then add acc
        else begin
          let lo, hi =
            if i = p then (dd - 1, dd)
            else (0, min (if i < p then dd - 1 else dd) sizes.(i))
          in
          for x = lo to hi - 1 do
            let kx, sx = streams.(i).(x) in
            match key with
            | _ when not (Exec.Join_key.joins kx) -> ()
            | Some k0 when Value.compare k0 kx <> 0 -> ()
            | _ -> go (i + 1) (Some kx) (if i = 0 then sx else acc +. sx)
          done
        end
      in
      if dd <= sizes.(p) then go 0 None 0.0
    in
    let d = ref 0 and stop = ref false in
    while not !stop do
      incr d;
      let dd = !d in
      for p = 0 to m - 1 do
        enter dd p
      done;
      let t = ref neg_infinity in
      for i = 0 to m - 1 do
        if dd < sizes.(i) then
          t :=
            Float.max !t
              (fold (fun j -> if j = i then snd streams.(i).(dd - 1) else top j))
      done;
      if kth () >= !t || dd >= n_max then stop := true
    done;
    Array.map (min !d) sizes
  end

(* Drain a rank-join input subplan into its (key, score) stream. *)
let side_stream catalog (plan, score, table, column) =
  let res = Core.Executor.run catalog plan in
  let schema = res.Core.Executor.schema in
  let keyf = Expr.compile schema (Expr.col ~relation:table column) in
  let scoref =
    match score with
    | Some e -> Expr.compile_float schema e
    | None -> fun _ -> 0.0
  in
  (* Sort by score even though rank-join inputs already deliver descending
     order: an NRJN inner is a plain (heap-order) scan, and the corner
     threshold needs its maximum as its top score. *)
  let arr =
    Array.of_list
      (List.map (fun (tu, _) -> (keyf tu, scoref tu)) res.Core.Executor.rows)
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) arr;
  arr

let allowed_of_corner d = (2 * d) + 8

(* Walk the plan propagating output demand: Top-k caps it, blocking
   operators (sort, filters above joins) reset it to "drain". Rank nodes
   reached by finite demand get simulated corner bounds (one per input),
   keyed by their [Plan.describe] label (the executor reports observed
   depths under the same label); identical labels take the most lenient
   bound. [max_int] means unbounded. *)
let depth_bounds catalog plan =
  let tbl : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  let record label bounds =
    match Hashtbl.find_opt tbl label with
    | Some prev -> Hashtbl.replace tbl label (Array.map2 max prev bounds)
    | None -> Hashtbl.add tbl label bounds
  in
  let rec walk demand plan =
    match plan with
    | Core.Plan.Top_k { k; input } -> walk (min demand k) input
    | Core.Plan.Sort { input; _ } | Core.Plan.Filter { input; _ } ->
        walk max_int input
    | Core.Plan.Table_scan _ | Core.Plan.Index_scan _
    | Core.Plan.Rank_index_scan _ | Core.Plan.Remote_scan _ ->
        ()
    (* distributed nodes never reach the local depth checker: the shard
       harness compares coordinator output tuple-by-tuple instead *)
    | Core.Plan.Gather_merge { inputs; _ } -> List.iter (walk max_int) inputs
    | Core.Plan.Join
        { algo = Core.Plan.Nrjn; cond; left; right; left_score; right_score } ->
        rank_join plan demand ~nrjn:true
          [|
            (left, left_score, cond.Core.Logical.left_table,
             cond.Core.Logical.left_column);
            (right, right_score, cond.Core.Logical.right_table,
             cond.Core.Logical.right_column);
          |]
    | Core.Plan.Join { left; right; _ } ->
        walk max_int left;
        walk max_int right
    | Core.Plan.Rank_join { inputs; scores; keys } ->
        rank_join plan demand ~nrjn:false
          (Array.of_list
             (List.map2
                (fun (input, score) (table, column) ->
                  (input, Some score, table, column))
                (List.combine inputs scores)
                keys))
    (* anyK's build drains every input regardless of demand; there is no
       depth bound to check on it *)
    | Core.Plan.Any_k { inputs; _ } -> List.iter (walk max_int) inputs
  and rank_join plan demand ~nrjn sides =
    let allowed =
      if demand = max_int then Array.map (fun _ -> max_int) sides
      else begin
        let streams = Array.map (side_stream catalog) sides in
        let allowed =
          Array.map allowed_of_corner (corner_depth ~k:demand streams)
        in
        (* NRJN rescans its inner per outer tuple; its inner depth is not
           demand-bounded. *)
        if nrjn then allowed.(1) <- max_int;
        allowed
      end
    in
    record (Core.Plan.describe plan) allowed;
    Array.iteri (fun i (input, _, _, _) -> walk allowed.(i) input) sides
  in
  walk max_int plan;
  tbl

(* Every rank-join node of a run as (label, is NRJN, stats): the binary
   nodes, then those over three or more inputs. *)
let rank_join_nodes (res : Core.Executor.run_result) =
  List.map
    (fun (rn : Core.Executor.rank_node_stats) ->
      (rn.Core.Executor.label, rn.Core.Executor.nrjn, rn.Core.Executor.stats))
    res.Core.Executor.rank_nodes
  @ List.map
      (fun (nn : Core.Executor.nary_node_stats) ->
        (nn.Core.Executor.nary_label, false, nn.Core.Executor.nary_stats))
      res.Core.Executor.nary_nodes

(* First input [i] (with its depth) satisfying [p i depth]. *)
let find_input st p =
  let ds = Exec.Exec_stats.depths st in
  let rec go i =
    if i = Array.length ds then None
    else if p i ds.(i) then Some (i, ds.(i))
    else go (i + 1)
  in
  go 0

let depth_check catalog plan (res : Core.Executor.run_result) =
  let nodes = rank_join_nodes res in
  (* After input [e] comes back empty, the others may be read only as far
     as learning that takes: two pulls, or one outer pull for NRJN (it
     finds the inner empty on its first scan). *)
  let over_read (label, nrjn, st) =
    Option.bind (find_input st (fun _ d -> d = 0)) (fun (e, _) ->
        let slack = if nrjn && e = 1 then 1 else 2 in
        Option.map
          (fun (i, d) ->
            Printf.sprintf "%s over-reads input %d (depth %d) after empty input %d"
              label i d e)
          (find_input st (fun i d -> i <> e && d > slack)))
  in
  match List.find_map over_read nodes with
  | Some msg -> Error msg
  | None -> (
      let bounds = depth_bounds catalog plan in
      let violation (label, _, st) =
        Option.bind (Hashtbl.find_opt bounds label) (fun allowed ->
            Option.map
              (fun (i, d) ->
                Printf.sprintf
                  "%s input %d depth %d exceeds simulated Theorem-2 bound %d"
                  label i d allowed.(i))
              (find_input st (fun i d -> allowed.(i) <> max_int && d > allowed.(i))))
      in
      match List.find_map violation nodes with
      | Some msg -> Error msg
      | None -> Ok ())

(* ------------------------------------------------------------------ *)
(* Checking one case                                                   *)
(* ------------------------------------------------------------------ *)

(* [Ok n]: all [n] enumerated plans agreed with the oracle and passed every
   invariant. [Error (reason, plan)] otherwise. *)
let check_case case : (int, string * string option) result =
  let catalog = build_catalog case in
  match Sqlfront.Binder.bind_result catalog case.c_query with
  | Error e -> Error (e, None)
  | exception e -> Error ("bind raised: " ^ Printexc.to_string e, None)
  | Ok bound -> (
      let query = bound.Sqlfront.Binder.logical in
      match oracle_topk catalog query with
      | exception e -> Error ("oracle raised: " ^ Printexc.to_string e, None)
      | expected -> (
          let score =
            match Core.Logical.scoring_expr query with
            | Some s -> s
            | None -> assert false (* generated queries always rank *)
          in
          let expected_scores = sorted_desc (List.map snd expected) in
          let k = Option.value ~default:1 query.Core.Logical.k in
          let env =
            Core.Cost_model.default_env ~k_min:(min k 1000) catalog query
          in
          match enumerate_plans env query with
          | exception e ->
              Error ("enumeration raised: " ^ Printexc.to_string e, None)
          | plans ->
              let rec check_all n = function
                | [] -> Ok n
                | plan :: rest -> (
                    let desc = Some (Core.Plan.describe plan) in
                    match
                      Lint.Engine.errors
                        (Lint.Engine.lint_plan ~query ~env catalog plan)
                    with
                    | d :: _ -> Error ("planlint: " ^ Lint.Diag.to_string d, desc)
                    | exception e ->
                        Error ("planlint raised: " ^ Printexc.to_string e, desc)
                    | [] -> (
                        match Core.Executor.run catalog plan with
                        | exception e ->
                            Error ("execution raised: " ^ Printexc.to_string e, desc)
                        | res -> (
                            let got = plan_scores score res in
                            if List.length got <> List.length expected_scores then
                              Error
                                ( Printf.sprintf
                                    "top-k size mismatch: oracle %d rows, plan %d"
                                    (List.length expected_scores)
                                    (List.length got),
                                  desc )
                            else if
                              not (List.for_all2 scores_close expected_scores got)
                            then
                              Error
                                ( Printf.sprintf
                                    "top-k scores diverge from oracle (oracle [%s], plan [%s])"
                                    (String.concat "; "
                                       (List.map (Printf.sprintf "%.9g")
                                          expected_scores))
                                    (String.concat "; "
                                       (List.map (Printf.sprintf "%.9g") got)),
                                  desc )
                            else
                              match depth_check catalog plan res with
                              | Error msg -> Error (msg, desc)
                              | Ok () -> check_all (n + 1) rest)))
              in
              check_all 0 plans))

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let still_fails case = Result.is_error (check_case case)

let replace_table case ts =
  {
    case with
    c_tables =
      List.map
        (fun t -> if String.equal t.t_name ts.t_name then ts else t)
        case.c_tables;
  }

(* Drop table rows one at a time, then query terms (non-join WHERE
   conjuncts), then try k = 1 — keeping every step that still fails. *)
let shrink case =
  let budget = ref 600 in
  let try_smaller current candidate =
    if !budget <= 0 then current
    else begin
      decr budget;
      if still_fails candidate then candidate else current
    end
  in
  let shrink_rows case =
    let current = ref case in
    List.iter
      (fun ts ->
        let rows = ref ts.t_rows in
        List.iter
          (fun row ->
            let candidate_rows = List.filter (fun r -> r <> row) !rows in
            let candidate =
              replace_table !current
                { ts with t_rows = candidate_rows }
            in
            let next = try_smaller !current candidate in
            if next != !current then begin
              current := next;
              rows := candidate_rows
            end)
          ts.t_rows)
      case.c_tables;
    !current
  in
  let is_join_conjunct (Sqlfront.Ast.Compare (op, a, b)) =
    match op, a, b with
    | ( Sqlfront.Ast.Eq,
        Sqlfront.Ast.Column { table = Some ta; _ },
        Sqlfront.Ast.Column { table = Some tb; _ } ) ->
        not (String.equal ta tb)
    | _ -> false
  in
  let shrink_filters case =
    let current = ref case in
    List.iter
      (fun cond ->
        if not (is_join_conjunct cond) then begin
          let q = !current.c_query in
          let candidate =
            {
              !current with
              c_query =
                { q with Sqlfront.Ast.where = List.filter (( <> ) cond) q.Sqlfront.Ast.where };
            }
          in
          current := try_smaller !current candidate
        end)
      case.c_query.Sqlfront.Ast.where;
    !current
  in
  let shrink_k case =
    match case.c_query.Sqlfront.Ast.limit with
    | Some k when k > 1 ->
        let candidate =
          { case with c_query = { case.c_query with Sqlfront.Ast.limit = Some 1 } }
        in
        try_smaller case candidate
    | _ -> case
  in
  (* Row shrinking may unlock further row shrinking (and vice versa): run to
     a small fixpoint, bounded by the budget. *)
  let rec fix case n =
    let smaller = shrink_k (shrink_filters (shrink_rows case)) in
    if n <= 0 || smaller = case then case else fix smaller (n - 1)
  in
  fix case 4

(* ------------------------------------------------------------------ *)
(* Reporting and the driver                                            *)
(* ------------------------------------------------------------------ *)

let replay_command seed = Printf.sprintf "rankopt fuzz --seed %d --cases 1" seed

let pp_table fmt ts =
  Format.fprintf fmt "%s(id, key, score) [%d rows]:" ts.t_name
    (List.length ts.t_rows);
  List.iter
    (fun (i, k, s) -> Format.fprintf fmt " (%d, %d, %g)" i k s)
    ts.t_rows

let pp_failure fmt f =
  Format.fprintf fmt "@[<v>rankcheck FAILURE (seed %d)@,  reason: %s@," f.f_seed
    f.f_reason;
  (match f.f_plan with
  | Some p -> Format.fprintf fmt "  plan:   %s@," p
  | None -> ());
  Format.fprintf fmt "  query:  %a@," Sqlfront.Ast.pp_query f.f_case.c_query;
  List.iter (fun ts -> Format.fprintf fmt "  %a@," pp_table ts) f.f_case.c_tables;
  Format.fprintf fmt "  replay: %s@]" f.f_replay

(* The one sweep driver every mode shares: check [cases] consecutive seeds,
   case [i] generated from [seed + i]. A failed check becomes a failure
   whose reason carries the mode's [prefix] and whose replay command is
   [replay] applied to the case's seed; with [shrink], the reported case is
   the shrunk counterexample and the reason is re-derived from it. *)
let sweep ?(progress = fun _ -> ()) ?shrink ~gen ~check ~prefix ~replay ~seed
    ~cases () =
  let failures = ref [] in
  let checked = ref 0 in
  for i = 0 to cases - 1 do
    progress i;
    let case = gen (seed + i) in
    match check case with
    | Ok n -> checked := !checked + n
    | Error e ->
        let case, (reason, plan) =
          match shrink with
          | None -> (case, e)
          | Some shrink -> (
              let shrunk = shrink case in
              match check shrunk with
              | Error e' -> (shrunk, e')
              | Ok _ -> (shrunk, e))
        in
        failures :=
          {
            f_seed = seed + i;
            f_reason = prefix ^ reason;
            f_plan = plan;
            f_case = case;
            f_replay = replay (seed + i);
          }
          :: !failures
  done;
  { o_cases = cases; o_plans = !checked; o_failures = List.rev !failures }

let run ?progress ~seed ~cases () =
  sweep ?progress ~shrink ~gen:gen_case ~check:check_case ~prefix:""
    ~replay:replay_command ~seed ~cases ()

(* ------------------------------------------------------------------ *)
(* Lint-only mode: static sweep, no execution                          *)
(* ------------------------------------------------------------------ *)

(* Optimize the case with emit-time linting on (every subplan the MEMO
   retains is checked as it is stored), then run the full catalog over each
   finished plan and over the optimizer's chosen statement — without
   executing anything. [Ok n]: [n] plans linted with zero diagnostics. *)
let lint_case case : (int, string * string option) result =
  let catalog = build_catalog case in
  match Sqlfront.Binder.bind_result catalog case.c_query with
  | Error e -> Error (e, None)
  | exception e -> Error ("bind raised: " ^ Printexc.to_string e, None)
  | Ok bound -> (
      let query = bound.Sqlfront.Binder.logical in
      let k = Option.value ~default:1 query.Core.Logical.k in
      let env = Core.Cost_model.default_env ~k_min:(min k 1000) catalog query in
      Lint.Engine.Emit.reset ();
      Lint.Engine.Emit.enable ();
      let result =
        try
          let plans = enumerate_plans env query in
          let planned = Core.Optimizer.optimize ~env catalog query in
          let per_plan =
            List.find_map
              (fun plan ->
                match
                  Lint.Engine.errors
                    (Lint.Engine.lint_plan ~query ~env catalog plan)
                with
                | [] -> None
                | d :: _ -> Some (d, Some (Core.Plan.describe plan)))
              plans
          in
          let statement =
            match Lint.Engine.errors (Lint.Engine.lint_planned planned) with
            | [] -> None
            | d :: _ -> Some (d, Some (Core.Plan.describe planned.Core.Optimizer.plan))
          in
          let emitted =
            match Lint.Engine.errors (Lint.Engine.Emit.diagnostics ()) with
            | [] -> None
            | d :: _ -> Some (d, None)
          in
          let counted = Lint.Engine.Emit.linted () + List.length plans + 1 in
          match per_plan, statement, emitted with
          | Some (d, p), _, _ | None, Some (d, p), _ | None, None, Some (d, p) ->
              Error ("planlint: " ^ Lint.Diag.to_string d, p)
          | None, None, None -> Ok counted
        with e -> Error ("lint sweep raised: " ^ Printexc.to_string e, None)
      in
      Lint.Engine.Emit.disable ();
      result)

(* No shrinking: lint failures are already localized by the diagnostic's
   plan path. *)
let run_lint ?progress ~seed ~cases () =
  sweep ?progress ~gen:gen_case ~check:lint_case ~prefix:""
    ~replay:(Printf.sprintf "rankopt lint --fuzz-seed %d --fuzz-cases 1")
    ~seed ~cases ()

(* ------------------------------------------------------------------ *)
(* Server mode: replay through a live server vs direct execution       *)
(* ------------------------------------------------------------------ *)

(* The wire rounds scores to 6 decimals, so compare with an absolute
   epsilon wider than the rendering granularity. *)
let wire_scores_close a b = Float.abs (a -. b) <= 1e-5

(* Trailing "score=<f>" cell of a result row; header lines have none. *)
let wire_scores response =
  List.filter_map
    (fun line ->
      match String.split_on_char '\t' line with
      | [] -> None
      | cells -> (
          let last = List.nth cells (List.length cells - 1) in
          match String.length last > 6 && String.sub last 0 6 = "score=" with
          | false -> None
          | true -> float_of_string_opt (String.sub last 6 (String.length last - 6))))
    response.Server.Protocol.payload

let check_case_server case : (int, string * string option) result =
  let catalog = build_catalog case in
  let tpl = Sqlfront.Sql.template_of_ast case.c_query in
  let k0 = Option.value ~default:1 case.c_query.Sqlfront.Ast.limit in
  let ks = [ k0; k0 + 3 ] in
  (* Direct, single-threaded execution of the same template at [k] — the
     oracle (itself differentially tested against the naive oracle by the
     plan-level modes above). *)
  let direct k =
    match Sqlfront.Sql.instantiate tpl ~k () with
    | Error e -> Error ("instantiate: " ^ e)
    | Ok ast -> (
        match Sqlfront.Sql.prepare_ast catalog ast with
        | Error e -> Error ("direct prepare: " ^ e)
        | Ok p -> (
            match Sqlfront.Sql.run_prepared catalog p with
            | Error e -> Error ("direct run: " ^ e)
            | Ok ans -> Ok (sorted_desc ans.Sqlfront.Sql.scores)))
  in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rankcheck-%d-%d.sock" (Unix.getpid ()) case.c_seed)
  in
  let endpoint = Server.Listener.Unix_socket sock in
  let listener =
    Server.Listener.start
      ~config:{ Server.Service.default_config with workers = 2 }
      endpoint catalog
  in
  Fun.protect ~finally:(fun () -> Server.Listener.stop listener) @@ fun () ->
  let client = Server.Client.connect endpoint in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  let request line =
    match Server.Client.request client line with
    | Error e -> Error ("transport: " ^ e)
    | Ok r when not r.Server.Protocol.ok ->
        Error
          (Printf.sprintf "server ERR %s: %s" r.Server.Protocol.code
             r.Server.Protocol.message)
    | Ok r -> Ok r
  in
  let oneline s =
    String.map (function '\n' -> ' ' | c -> c) s
  in
  let ( let* ) = Result.bind in
  let checked = ref 0 in
  let result =
    let* _ =
      request (Printf.sprintf "PREPARE q %s" (oneline tpl.Sqlfront.Sql.tpl_text))
    in
    List.fold_left
      (fun acc k ->
        let* () = acc in
        let* expected = direct k in
        (* Replay twice: the first may optimize, the second must be served
           from the plan cache (the stored variant's k-interval contains
           its own k). Both must agree with direct execution. *)
        let rec replay i =
          if i >= 2 then Ok ()
          else
            let* resp = request (Printf.sprintf "EXECUTE q %d" k) in
            let got = sorted_desc (wire_scores resp) in
            if List.length got <> List.length expected then
              Error
                (Printf.sprintf
                   "k=%d replay %d: size mismatch (direct %d rows, server %d)"
                   k i (List.length expected) (List.length got))
            else if not (List.for_all2 wire_scores_close expected got) then
              Error
                (Printf.sprintf
                   "k=%d replay %d: scores diverge (direct [%s], server [%s])"
                   k i
                   (String.concat "; " (List.map (Printf.sprintf "%.6f") expected))
                   (String.concat "; " (List.map (Printf.sprintf "%.6f") got)))
            else if
              i = 1
              && List.assoc_opt "cached" resp.Server.Protocol.fields
                 <> Some "1"
            then Error (Printf.sprintf "k=%d replay %d: expected a cache hit" k i)
            else begin
              incr checked;
              replay (i + 1)
            end
        in
        replay 0)
      (Ok ()) ks
  in
  (* PL10 audit: every variant the server's plan cache now holds must pass
     the planlint cache rule (canonical key, sane k-interval containing the
     bound k) plus the full catalog on its plan. *)
  let lint_cache () =
    let svc = Server.Listener.service listener in
    List.find_map
      (fun (key, epoch, prepared) ->
        match
          Lint.Engine.errors (Lint.Engine.lint_prepared ~key ~epoch prepared)
        with
        | [] ->
            incr checked;
            None
        | dg :: _ -> Some ("planlint cache: " ^ Lint.Diag.to_string dg))
      (Server.Service.cache_entries svc)
  in
  match result with
  | Ok () -> (
      match lint_cache () with
      | None -> Ok !checked
      | Some reason -> Error (reason, None))
  | Error reason -> Error (reason, None)

let run_server ?progress ~seed ~cases () =
  sweep ?progress ~gen:gen_case ~check:check_case_server
    ~prefix:"server-mode: "
    ~replay:(Printf.sprintf "rankopt fuzz --server --seed %d --cases 1")
    ~seed ~cases ()

(* ------------------------------------------------------------------ *)
(* Vector mode: batched execution vs the tuple-at-a-time reference     *)
(* ------------------------------------------------------------------ *)

(* Every MEMO-retained plan is executed twice — once with the executor's
   vectorized spines disabled ([~vectorized:false], the pre-batching
   tuple-at-a-time interpreter) and once batch-at-a-time (the default) —
   and the two runs must be *bit identical*: same tuples, same scores,
   same order. The batch kernels replicate the scalar expression
   interpreter exactly (Null propagation, NaN ordering, constant folding
   in the Value domain), so no tolerance is allowed. Rank joins stay
   streaming sinks under vectorization; their per-input depth counters
   and emitted counts must also match exactly, proving the batching
   boundary never changes how far a rank join reads (Theorem 1/2
   accounting is untouched). *)

let rows_identical a b =
  List.length a = List.length b
  && List.for_all2
       (fun (t1, s1) (t2, s2) ->
         Relalg.Tuple.equal t1 t2 && Float.compare s1 s2 = 0)
       a b

let vector_stats_divergence label a b =
  let da = Exec.Exec_stats.depths a and db = Exec.Exec_stats.depths b in
  let show d =
    String.concat ";" (List.map string_of_int (Array.to_list d))
  in
  if da <> db then
    Some
      (Printf.sprintf
         "rank join %s: input depths [%s] (serial) vs [%s] (vectorized)" label
         (show da) (show db))
  else if Exec.Exec_stats.emitted a <> Exec.Exec_stats.emitted b then
    Some
      (Printf.sprintf "rank join %s: emitted %d (serial) vs %d (vectorized)"
         label
         (Exec.Exec_stats.emitted a)
         (Exec.Exec_stats.emitted b))
  else None

(* Rank-node stats are reported in plan pre-order by both runs of the same
   plan, so position-wise pairing is exact. *)
let vector_counters_diverge serial vec =
  let a = rank_join_nodes serial and b = rank_join_nodes vec in
  if List.length a <> List.length b then
    Some
      (Printf.sprintf "rank-join node count %d (serial) vs %d (vectorized)"
         (List.length a) (List.length b))
  else
    List.find_map
      (fun ((la, _, sa), (lb, _, sb)) ->
        if not (String.equal la lb) then
          Some (Printf.sprintf "rank-join node pairing: %s vs %s" la lb)
        else vector_stats_divergence la sa sb)
      (List.combine a b)

let check_case_vector case : (int, string * string option) result =
  let catalog = build_catalog case in
  match Sqlfront.Binder.bind_result catalog case.c_query with
  | Error e -> Error (e, None)
  | exception e -> Error ("bind raised: " ^ Printexc.to_string e, None)
  | Ok bound -> (
      let query = bound.Sqlfront.Binder.logical in
      let k = Option.value ~default:1 query.Core.Logical.k in
      let env = Core.Cost_model.default_env ~k_min:(min k 1000) catalog query in
      match enumerate_plans env query with
      | exception e ->
          Error ("enumeration raised: " ^ Printexc.to_string e, None)
      | plans ->
          let rec check_all n = function
            | [] -> Ok n
            | plan :: rest -> (
                let desc = Some (Core.Plan.describe plan) in
                match Core.Executor.run ~vectorized:false catalog plan with
                | exception e ->
                    Error
                      ( "tuple-at-a-time execution raised: "
                        ^ Printexc.to_string e,
                        desc )
                | serial -> (
                    match Core.Executor.run ~vectorized:true catalog plan with
                    | exception e ->
                        Error
                          ( "vectorized execution raised: "
                            ^ Printexc.to_string e,
                            desc )
                    | vec ->
                        if
                          not
                            (rows_identical serial.Core.Executor.rows
                               vec.Core.Executor.rows)
                        then
                          Error
                            ( Printf.sprintf
                                "vectorized run diverges from tuple-at-a-time: \
                                 rows %d vs %d, or tuple order/scores differ"
                                (List.length vec.Core.Executor.rows)
                                (List.length serial.Core.Executor.rows),
                              desc )
                        else
                          match vector_counters_diverge serial vec with
                          | Some msg -> Error (msg, desc)
                          | None -> check_all (n + 1) rest))
          in
          check_all 0 plans)

let run_vector ?progress ~seed ~cases () =
  sweep ?progress ~gen:gen_case ~check:check_case_vector
    ~prefix:"vector-mode: "
    ~replay:(Printf.sprintf "rankopt fuzz --vector --seed %d --cases 1")
    ~seed ~cases ()

(* ------------------------------------------------------------------ *)
(* Enumeration mode: cursor FETCH prefixes vs a full ranked-list oracle *)
(* ------------------------------------------------------------------ *)

(* Enumeration cases reuse the generator but snap every score to the 1/8
   grid. Query weights already live on that grid, so each weighted term
   i/8 * j/8 = ij/64 and every total score is a small dyadic rational —
   exactly representable, and bit-identical no matter how a plan
   associates the additions. That is what lets this mode demand
   tuple-exact prefixes where the plan-level modes settle for score
   multisets under [scores_close]. A sixteenth of the rows get a NaN
   score: the cursor contract drops NaN-scored answers entirely, and the
   oracle must agree. *)
let enum_case seed =
  let case = gen_case seed in
  let prng = Rkutil.Prng.create (seed lxor 0x2545f491) in
  let tables =
    List.map
      (fun ts ->
        {
          ts with
          t_rows =
            List.map
              (fun (i, k, s) ->
                if Rkutil.Prng.int prng 16 = 0 then (i, k, Float.nan)
                else (i, k, Float.round (s *. 8.0) /. 8.0))
              ts.t_rows;
        })
      case.c_tables
  in
  { case with c_tables = tables }

(* The full ranked answer list as the cursor contract defines it:
   materialize the join naively, score every row, drop NaN totals, sort
   score-descending, and break exact-score ties by the canonical column
   order — the same normalization {!Core.Executor.open_cursor} applies,
   so every resumable plan shape must reproduce this exact sequence. *)
let oracle_enum catalog (query : Core.Logical.t) =
  let scored = oracle_topk catalog { query with Core.Logical.k = None } in
  let schema =
    match query.Core.Logical.relations with
    | [] -> invalid_arg "oracle_enum: no relations"
    | b0 :: rest ->
        List.fold_left
          (fun acc (b : Core.Logical.base) ->
            Schema.concat acc
              (Storage.Catalog.table catalog b.Core.Logical.name)
                .Storage.Catalog.tb_schema)
          (Storage.Catalog.table catalog b0.Core.Logical.name)
            .Storage.Catalog.tb_schema rest
  in
  let perm = Core.Executor.canonical_perm schema in
  let rows =
    scored
    |> List.filter (fun (_, s) -> not (Float.is_nan s))
    |> List.sort (fun (t1, s1) (t2, s2) ->
           match Float.compare s2 s1 with
           | 0 -> Core.Executor.canonical_compare perm t1 t2
           | c -> c)
  in
  (schema, rows)

(* Map the server reply's column order (fully qualified names) back into
   the oracle's joined schema, so oracle tuples can be compared cell for
   cell against projected reply rows. *)
let enum_projector schema columns =
  let by_name = Hashtbl.create 16 in
  List.iteri
    (fun i c -> Hashtbl.replace by_name (Schema.column_name c) i)
    (Schema.columns schema);
  match
    List.map
      (fun name ->
        match Hashtbl.find_opt by_name name with
        | Some i -> i
        | None -> raise Exit)
      columns
  with
  | idxs ->
      Some (fun t -> Tuple.make (List.map (fun i -> Tuple.get t i) idxs))
  | exception Exit -> None

let check_case_enum case : (int, string * string option) result =
  let catalog = build_catalog case in
  match Sqlfront.Binder.bind_result catalog case.c_query with
  | Error e -> Error (e, None)
  | exception e -> Error ("bind raised: " ^ Printexc.to_string e, None)
  | Ok bound -> (
      let query = bound.Sqlfront.Binder.logical in
      match oracle_enum catalog query with
      | exception e -> Error ("oracle raised: " ^ Printexc.to_string e, None)
      | schema, expected_raw -> (
          let k0 = Option.value ~default:1 case.c_query.Sqlfront.Ast.limit in
          let tpl = Sqlfront.Sql.template_of_ast case.c_query in
          (* Mirror the service's (deterministic) planning to learn up
             front whether the statement is cursor-eligible. *)
          let plan_desc = ref None in
          let eligible =
            match Sqlfront.Sql.instantiate tpl ~k:k0 () with
            | Error _ | (exception _) -> false
            | Ok ast -> (
                match Sqlfront.Sql.prepare_ast catalog ast with
                | Error _ | (exception _) -> false
                | Ok p ->
                    plan_desc :=
                      Some
                        (Core.Plan.describe
                           p.Sqlfront.Sql.planned.Core.Optimizer.plan);
                    Sqlfront.Sql.cursor_eligible p)
          in
          let svc =
            Server.Service.create
              ~config:{ Server.Service.default_config with workers = 2 }
              catalog
          in
          Fun.protect ~finally:(fun () -> Server.Service.shutdown svc)
          @@ fun () ->
          let sess = Server.Service.open_session svc in
          Fun.protect ~finally:(fun () -> Server.Service.close_session sess)
          @@ fun () ->
          let oneline s = String.map (function '\n' -> ' ' | c -> c) s in
          let err e =
            Printf.sprintf "server ERR %s: %s"
              (Server.Service.error_code e)
              (Server.Service.error_message e)
          in
          let ( let* ) = Result.bind in
          let checked = ref 0 in
          let result =
            let* _ =
              Result.map_error err
                (Server.Service.prepare sess ~name:"q"
                   (oneline tpl.Sqlfront.Sql.tpl_text))
            in
            let* reply =
              Result.map_error err
                (Server.Service.execute_prepared sess ~k:k0 "q")
            in
            if not eligible then
              (* Not cursor-resumable: the only contract to check is that
                 EXECUTE parked no cursor. *)
              match Server.Service.fetch sess ~name:"q" 1 with
              | Error (Server.Service.Unknown_cursor _) ->
                  incr checked;
                  Ok ()
              | Ok _ ->
                  Error "FETCH succeeded on a non-enumerable statement"
              | Error e -> Error ("non-enumerable FETCH: " ^ err e)
            else
              let* project =
                match
                  enum_projector schema reply.Server.Service.columns
                with
                | Some f -> Ok f
                | None ->
                    Error
                      (Printf.sprintf
                         "reply columns [%s] not all present in the oracle \
                          schema"
                         (String.concat "; " reply.Server.Service.columns))
              in
              let expected =
                List.map (fun (t, s) -> (project t, s)) expected_raw
              in
              let total = List.length expected in
              let got = ref [] in
              let extend (r : Server.Service.reply) =
                let scores =
                  (* Ranked replies always carry scores; guard anyway so a
                     regression fails the case instead of raising. *)
                  if
                    List.length r.Server.Service.scores
                    = List.length r.Server.Service.rows
                  then Ok r.Server.Service.scores
                  else Error "reply rows and scores disagree in length"
                in
                Result.map
                  (fun scores ->
                    let batch = List.combine r.Server.Service.rows scores in
                    got := !got @ batch;
                    List.length batch)
                  scores
              in
              let compare_prefix () =
                let n = List.length !got in
                if n > total then
                  Error
                    (Printf.sprintf
                       "cursor produced %d rows but the oracle has only %d"
                       n total)
                else begin
                  let rec go i gs es =
                    match gs, es with
                    | [], _ -> Ok ()
                    | (gt, gscore) :: gs', (et, escore) :: es' ->
                        if Float.compare gscore escore <> 0 then
                          Error
                            (Printf.sprintf
                               "rank %d: score %.17g diverges from oracle \
                                %.17g"
                               i gscore escore)
                        else if not (Tuple.equal gt et) then
                          Error
                            (Printf.sprintf
                               "rank %d: tuple diverges from the oracle at \
                                equal score %.17g"
                               i gscore)
                        else go (i + 1) gs' es'
                    | _ :: _, [] -> assert false
                  in
                  let r = go 0 !got expected in
                  if Result.is_ok r then incr checked;
                  r
                end
              in
              let* _ = extend reply in
              let* () = compare_prefix () in
              (* Vary the fetch sizes deterministically: exhaustion must be
                 reached exactly at the oracle's row count, with every
                 intermediate prefix tuple-exact. *)
              let prng = Rkutil.Prng.create (case.c_seed lxor 0x51ed27) in
              let rec fetch_loop () =
                if List.length !got >= total then Ok ()
                else
                  let n = 1 + Rkutil.Prng.int prng 4 in
                  let* r =
                    Result.map_error err
                      (Server.Service.fetch sess ~name:"q" n)
                  in
                  let* produced = extend r in
                  let* () = compare_prefix () in
                  if produced < n && List.length !got < total then
                    Error
                      (Printf.sprintf
                         "cursor exhausted at %d rows but the oracle has %d"
                         (List.length !got) total)
                  else fetch_loop ()
              in
              let* () = fetch_loop () in
              let* past =
                Result.map_error err (Server.Service.fetch sess ~name:"q" 3)
              in
              let* () =
                if past.Server.Service.rows = [] then Ok ()
                else Error "cursor kept producing rows past exhaustion"
              in
              Result.map_error err (Server.Service.close_cursor sess "q")
          in
          match result with
          | Ok () -> Ok !checked
          | Error reason -> Error (reason, !plan_desc)))

let run_enum ?progress ~seed ~cases () =
  sweep ?progress ~gen:enum_case ~check:check_case_enum ~prefix:"enum-mode: "
    ~replay:(Printf.sprintf "rankopt fuzz --enum --seed %d --cases 1")
    ~seed ~cases ()

(* ------------------------------------------------------------------ *)
(* Rank mode: by-rank windows vs a sort-everything oracle              *)
(* ------------------------------------------------------------------ *)

(* A rank case is a single scored table (snapped to the 1/8 grid so tie
   blocks are common, a sixteenth of the rows NaN-scored) plus a
   WHERE rank() BETWEEN window, sometimes with an extra filter conjunct
   and sometimes overshooting the table's cardinality — both clamping
   paths must agree with the oracle. *)
let rank_case seed =
  let prng = Rkutil.Prng.create (seed lxor 0x3ad76b21) in
  let ts = gen_table prng "T0" in
  let ts =
    {
      ts with
      t_rows =
        List.map
          (fun (i, k, s) ->
            if Rkutil.Prng.int prng 16 = 0 then (i, k, Float.nan)
            else (i, k, Float.round (s *. 8.0) /. 8.0))
          ts.t_rows;
    }
  in
  let n = List.length ts.t_rows in
  let lo = 1 + Rkutil.Prng.int prng (n + 2) in
  let hi = lo + Rkutil.Prng.int prng 8 in
  let open Sqlfront.Ast in
  let where =
    if Rkutil.Prng.int prng 3 = 0 then
      [
        Compare
          ( Le,
            Column { table = Some "T0"; name = "key" },
            Number (float_of_int (Rkutil.Prng.int prng ts.t_key_domain)) );
      ]
    else []
  in
  let query =
    {
      select = [ Star ];
      from = [ "T0" ];
      where;
      rank_between = Some (lo, hi);
      (* a third of the corpus exercises dense numbering; the snapped
         score grid guarantees tie blocks for it to differ on *)
      rank_dense = Rkutil.Prng.int prng 3 = 0;
      group_by = [];
      order_by =
        Some (Column { table = Some "T0"; name = "score" }, Desc);
      limit = None;
      limit_param = false;
    }
  in
  { c_seed = seed; c_tables = [ ts ]; c_query = query }

(* The oracle: sort every non-NaN row score-descending with the canonical
   tie order, slice ranks lo..hi, then apply any residual filter — the
   window is computed over the whole table, filters prune within it. *)
let oracle_rank catalog (query : Core.Logical.t) lo hi =
  let base =
    match query.Core.Logical.relations with
    | [ b ] -> b
    | _ -> invalid_arg "oracle_rank: single relation expected"
  in
  let info = Storage.Catalog.table catalog base.Core.Logical.name in
  let schema = info.Storage.Catalog.tb_schema in
  let score =
    match Core.Logical.scoring_expr query with
    | Some e -> e
    | None -> invalid_arg "oracle_rank: scored relation expected"
  in
  let scoref = Expr.compile_float schema score in
  let perm = Core.Executor.canonical_perm schema in
  let ranked =
    Storage.Heap_file.to_list info.Storage.Catalog.tb_heap
    |> List.filter_map (fun tu ->
           let s = scoref tu in
           if Float.is_nan s then None else Some (tu, s))
    |> List.sort (fun (t1, s1) (t2, s2) ->
           match Float.compare s2 s1 with
           | 0 -> Core.Executor.canonical_compare perm t1 t2
           | c -> c)
  in
  let lo = max 1 lo in
  let window =
    if hi < lo then []
    else if not query.Core.Logical.rank_dense then
      List.filteri (fun i _ -> i >= lo - 1 && i <= hi - 1) ranked
    else begin
      (* dense numbering, derived independently of the engine: walk the
         descending run counting distinct scores *)
      let _, _, rev =
        List.fold_left
          (fun (d, prev, acc) ((_, s) as e) ->
            let d =
              match prev with
              | Some p when Float.compare p s = 0 -> d
              | _ -> d + 1
            in
            (d, Some s, if d >= lo && d <= hi then e :: acc else acc))
          (0, None, []) ranked
      in
      List.rev rev
    end
  in
  match base.Core.Logical.filter with
  | None -> window
  | Some pred ->
      let predf = Expr.compile schema pred in
      List.filter
        (fun (tu, _) ->
          match predf tu with Value.Bool b -> b | _ -> false)
        window

let tuple_ids rows =
  List.map
    (fun (tu, _) ->
      match Tuple.get tu 0 with Value.Int i -> i | _ -> -1)
    rows

(* Execute both physical variants of the window — counted index descent
   and drain-sort-slice — against the oracle, then the full SQL path
   (parser, binder, optimizer's cost arbitration) on the printed query.
   Every row list must be tuple-exact: same ids, same scores, same
   order. *)
let check_case_rank case : (int, string * string option) result =
  let catalog = build_catalog case in
  match Sqlfront.Binder.bind_result catalog case.c_query with
  | Error e -> Error (e, None)
  | exception e -> Error ("bind raised: " ^ Printexc.to_string e, None)
  | Ok bound -> (
      let query = bound.Sqlfront.Binder.logical in
      let lo, hi =
        match query.Core.Logical.rank_range with
        | Some w -> w
        | None -> (1, 0)
      in
      match oracle_rank catalog query lo hi with
      | exception e -> Error ("oracle raised: " ^ Printexc.to_string e, None)
      | expected -> (
          let score =
            match Core.Logical.scoring_expr query with
            | Some s -> s
            | None -> assert false
          in
          let env = Core.Cost_model.default_env catalog query in
          let base = List.hd query.Core.Logical.relations in
          let wrap access =
            match base.Core.Logical.filter with
            | Some pred -> Core.Plan.Filter { pred; input = access }
            | None -> access
          in
          let dense = query.Core.Logical.rank_dense in
          let variants =
            [
              wrap
                (Core.Plan.Rank_index_scan
                   { table = "T0"; index = Some "T0_score"; score; lo; hi; dense });
              wrap
                (Core.Plan.Rank_index_scan
                   { table = "T0"; index = None; score; lo; hi; dense });
            ]
          in
          let expected_ids = tuple_ids expected in
          let expected_scores = List.map snd expected in
          let compare_rows desc rows =
            if tuple_ids rows <> expected_ids then
              Error
                ( Printf.sprintf "window rows diverge: oracle [%s], got [%s]"
                    (String.concat ";" (List.map string_of_int expected_ids))
                    (String.concat ";"
                       (List.map string_of_int (tuple_ids rows))),
                  desc )
            else if
              not (List.for_all2 scores_close expected_scores (List.map snd rows))
            then Error ("window scores diverge from oracle", desc)
            else Ok ()
          in
          let rec check_plans n = function
            | [] -> Ok n
            | plan :: rest -> (
                let desc = Some (Core.Plan.describe plan) in
                match
                  Lint.Engine.errors
                    (Lint.Engine.lint_plan ~query ~env catalog plan)
                with
                | d :: _ -> Error ("planlint: " ^ Lint.Diag.to_string d, desc)
                | exception e ->
                    Error ("planlint raised: " ^ Printexc.to_string e, desc)
                | [] -> (
                    match Core.Executor.run catalog plan with
                    | exception e ->
                        Error ("execution raised: " ^ Printexc.to_string e, desc)
                    | res -> (
                        match compare_rows desc res.Core.Executor.rows with
                        | Error e -> Error e
                        | Ok () -> check_plans (n + 1) rest)))
          in
          match check_plans 0 variants with
          | Error e -> Error e
          | Ok n -> (
              (* End to end: the printed query re-enters through the parser
                 and the optimizer's own access-path choice. *)
              let sql = Format.asprintf "%a" Sqlfront.Ast.pp_query case.c_query in
              match Sqlfront.Sql.query catalog sql with
              | Error e -> Error ("sql path: " ^ e, None)
              | exception e ->
                  Error ("sql path raised: " ^ Printexc.to_string e, None)
              | Ok ans ->
                  let desc =
                    Some
                      (Core.Plan.describe
                         ans.Sqlfront.Sql.planned.Core.Optimizer.plan)
                  in
                  let ids =
                    List.map
                      (fun tu ->
                        match Tuple.get tu 0 with Value.Int i -> i | _ -> -1)
                      ans.Sqlfront.Sql.rows
                  in
                  if ids <> expected_ids then
                    Error
                      ( Printf.sprintf
                          "sql path rows diverge: oracle [%s], got [%s]"
                          (String.concat ";"
                             (List.map string_of_int expected_ids))
                          (String.concat ";" (List.map string_of_int ids)),
                        desc )
                  else Ok (n + 1))))

let run_rank ?progress ~seed ~cases () =
  sweep ?progress ~gen:rank_case ~check:check_case_rank ~prefix:"rank-mode: "
    ~replay:(Printf.sprintf "rankopt fuzz --rank --seed %d --cases 1")
    ~seed ~cases ()

(* ------------------------------------------------------------------ *)
(* Shard mode: sharded coordinator vs single node                      *)
(* ------------------------------------------------------------------ *)

(* Differential check for the scatter/gather coordinator. Each case's
   top-k join runs once on a single node and once through an in-process
   cluster of [shards] engine shards hash-partitioned on [key] (the
   generated queries join exclusively on [key], so every case is
   co-partitioned and must scatter). The sharded answer must match the
   full single-node ranked list: score sequence equal to within float
   association jitter (plan shapes associate the weighted sum
   differently), tuple-exact rows above the k-th score, and boundary rows drawn
   from the oracle's k-th-score tie group — the one set where any
   member is a correct answer on a single node too (Top-N keeps an
   arbitrary subset of a boundary tie). A routed INSERT then goes
   through the coordinator and the query re-runs, so mis-routed DML,
   stale scatter caches and epoch bugs all surface as divergence. *)

let check_case_shard ~shards case : (int, string) result =
  let catalog = build_catalog case in
  let tpl = Sqlfront.Sql.template_of_ast case.c_query in
  let k = Option.value ~default:1 case.c_query.Sqlfront.Ast.limit in
  let sql = Format.asprintf "%a" Sqlfront.Ast.pp_query case.c_query in
  (* Single-node oracle: the full ranked list (k larger than any join),
     from which the expected prefix and boundary tie group are read. *)
  let direct_full () =
    match Sqlfront.Sql.instantiate tpl ~k:1_000_000 () with
    | Error e -> Error ("instantiate: " ^ e)
    | Ok ast -> (
        match Sqlfront.Sql.prepare_ast catalog ast with
        | Error e -> Error ("direct prepare: " ^ e)
        | Ok p -> (
            match Sqlfront.Sql.run_prepared catalog p with
            | Error e -> Error ("direct run: " ^ e)
            | Ok ans ->
                if
                  List.length ans.Sqlfront.Sql.scores
                  <> List.length ans.Sqlfront.Sql.rows
                then Error "direct: row/score arity mismatch"
                else
                  Ok
                    ( ans.Sqlfront.Sql.columns,
                      List.map2
                        (fun r s -> (r, s))
                        ans.Sqlfront.Sql.rows ans.Sqlfront.Sql.scores )))
  in
  (* [SELECT *] output column order follows the chosen join order, which
     the two sides may pick differently; compare rows under a
     name-sorted column permutation. *)
  let name_perm columns =
    let cols = List.mapi (fun i c -> (i, c)) columns in
    let sorted =
      List.sort (fun (_, a) (_, b) -> String.compare a b) cols
    in
    Array.of_list (List.map fst sorted)
  in
  let permute perm (tu : Tuple.t) = Array.map (fun i -> tu.(i)) perm in
  let config = { Server.Service.default_config with workers = 1 } in
  let cluster = Shard.Cluster.start ~config ~n:shards catalog in
  Fun.protect ~finally:(fun () -> Shard.Cluster.stop cluster) @@ fun () ->
  let ses = Shard.Coordinator.open_session (Shard.Cluster.coordinator cluster) in
  Fun.protect ~finally:(fun () -> Shard.Coordinator.close_session ses)
  @@ fun () ->
  let ( let* ) = Result.bind in
  let tuple_cmp (a, _) (b, _) = Tuple.compare a b in
  let compare_round label =
    let* dcols, full = direct_full () in
    match Shard.Coordinator.query ses sql with
    | Error e ->
        Error
          (Printf.sprintf "%s: coordinator: %s" label
             (Server.Service.error_message e))
    | Ok reply ->
        let fail fmt = Printf.ksprintf (fun m -> Error (label ^ ": " ^ m)) fmt in
        if not reply.Shard.Coordinator.scattered then
          fail "co-partitioned top-k did not scatter"
        else if
          List.length reply.Shard.Coordinator.scores
          <> List.length reply.Shard.Coordinator.rows
        then fail "coordinator row/score arity mismatch"
        else if
          List.sort String.compare dcols
          <> List.sort String.compare reply.Shard.Coordinator.columns
        then
          fail "column sets diverge (single node [%s], sharded [%s])"
            (String.concat "; " dcols)
            (String.concat "; " reply.Shard.Coordinator.columns)
        else begin
          let perm_e = name_perm dcols in
          let perm_g = name_perm reply.Shard.Coordinator.columns in
          let got =
            List.map2
              (fun r s -> (permute perm_g r, s))
              reply.Shard.Coordinator.rows reply.Shard.Coordinator.scores
          in
          let full = List.map (fun (r, s) -> (permute perm_e r, s)) full in
          let kk = min k (List.length full) in
          let expected = List.filteri (fun i _ -> i < kk) full in
          let rec is_sorted = function
            | (_, a) :: ((_, b) :: _ as rest) ->
                Float.compare a b >= 0 && is_sorted rest
            | _ -> true
          in
          if List.length got <> kk then
            fail "size mismatch: single node %d rows, sharded %d" kk
              (List.length got)
          else if not (is_sorted got) then
            fail "sharded rows not in non-increasing score order"
          else if
            (* Different plan shapes associate the weighted score sum
               differently (rank-join accumulation vs one expression
               evaluation), so scores agree only to within float
               association jitter — exactly like the plan-level modes. *)
            not (List.for_all2 (fun (_, a) (_, b) -> scores_close a b) expected got)
          then
            fail "score sequence diverges (single node [%s], sharded [%s])"
              (String.concat "; "
                 (List.map
                    (fun (r, s) -> Printf.sprintf "%s@%h" (Tuple.to_string r) s)
                    expected))
              (String.concat "; "
                 (List.map
                    (fun (r, s) -> Printf.sprintf "%s@%h" (Tuple.to_string r) s)
                    got))
          else begin
            (* Rows are classified against the k-th score with the same
               tolerance: strictly-above rows are uniquely determined and
               must match as a multiset; rows in the boundary band may
               resolve to any member of the oracle's boundary tie group
               (single-node Top-N keeps an arbitrary subset of a tie). *)
            let boundary =
              match List.rev expected with [] -> None | (_, s) :: _ -> Some s
            in
            let strict l =
              match boundary with
              | None -> l
              | Some b ->
                  List.filter
                    (fun (_, s) -> s > b && not (scores_close s b)) l
            in
            let exp_strict = List.sort tuple_cmp (strict expected) in
            let got_strict = List.sort tuple_cmp (strict got) in
            if
              List.length exp_strict <> List.length got_strict
              || not
                   (List.for_all2
                      (fun (a, _) (b, _) -> Tuple.equal a b)
                      exp_strict got_strict)
            then
              fail "rows above the boundary tie group diverge (single node [%s], sharded [%s])"
                (String.concat "; "
                   (List.map (fun (r, _) -> Tuple.to_string r) exp_strict))
                (String.concat "; "
                   (List.map (fun (r, _) -> Tuple.to_string r) got_strict))
            else begin
              let at_boundary l =
                match boundary with
                | None -> []
                | Some b -> List.filter (fun (_, s) -> scores_close s b) l
              in
              let tie_group = at_boundary full in
              if
                List.for_all
                  (fun (r, _) ->
                    List.exists (fun (r', _) -> Tuple.equal r r') tie_group)
                  (at_boundary got)
              then Ok ()
              else fail "a sharded boundary row is not in the oracle tie group"
            end
          end
        end
  in
  try
    let* () = compare_round "initial" in
    (* Route an INSERT through the coordinator (mirror first, then the
       owning shard); key 0 always exists in every join's key domain. *)
    let* () =
      match
        Shard.Coordinator.query ses "INSERT INTO T0 VALUES (100001, 0, 1.75)"
      with
      | Error e -> Error ("routed INSERT: " ^ Server.Service.error_message e)
      | Ok r when r.Shard.Coordinator.affected <> Some 1 ->
          Error "routed INSERT: expected affected=1"
      | Ok _ -> Ok ()
    in
    let* () = compare_round "after routed INSERT" in
    Ok 3
  with e -> Error ("shard-mode raised: " ^ Printexc.to_string e)

let run_shard ?progress ~seed ~cases ~shards () =
  sweep ?progress ~gen:gen_case
    ~check:(fun case ->
      Result.map_error (fun r -> (r, None)) (check_case_shard ~shards case))
    ~prefix:(Printf.sprintf "shard-mode (%d shards): " shards)
    ~replay:(Printf.sprintf "rankopt fuzz --shard %d --seed %d --cases 1" shards)
    ~seed ~cases ()
