(* rankcheck: a seed-deterministic differential fuzz harness.

   One runner checks every mode. A mode is one entry of a table: a case
   generator, an execution that produces the answer under test, and the
   oracle that answer must agree with. Every execution starts from the
   same prelude (materialize the case's tables, bind its query), and every
   plan-level execution goes through the same lint-then-run loop. Three
   oracles are shared:

   - [Scores]: the top-k score multiset, paired under a tolerance;
   - [Exact]: rows tuple-exact, scores bit-equal, in order;
   - [Top_k]: rows tuple-exact above the k-th score, boundary rows drawn
     from the reference list's k-th-score tie group.

   The reference is usually the naive ranked list: materialize the full
   join in relalg, score it, drop NaN totals, sort score-descending with
   the canonical tie order. Failures in the in-process modes auto-shrink
   (tables row by row, then query term by term) and every failure reports
   a verbatim replay command: case [i] of [run mode ~seed ~cases] is
   exactly case 0 of [run mode ~seed:(seed + i) ~cases:1]. *)

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
        let key () = Number (float_of_int (Rkutil.Prng.int prng ts.t_key_domain)) in
        if Rkutil.Prng.int prng 3 <> 0 then None
        else
          match Rkutil.Prng.int prng 3 with
          | 0 -> Some (Compare (Ge, col ts.t_name "score", Number (grid8 prng 0 7)))
          | 1 -> Some (Compare (Eq, col ts.t_name "key", key ()))
          | _ -> Some (Compare (Le, col ts.t_name "key", key ())))
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


(* Enum and rank cases snap every score to the 1/8 grid. Query weights
   already live on that grid, so each weighted term i/8 * j/8 = ij/64 and
   every total score is a small dyadic rational: exactly representable,
   and bit-identical no matter how a plan associates the additions. That
   is what lets those modes demand tuple-exact rows where the plan-level
   mode settles for score multisets under [scores_close]. A sixteenth of
   the rows get a NaN score: ranked answers drop NaN-scored rows entirely,
   and the oracle must agree. *)
let snap8 prng ts =
  {
    ts with
    t_rows =
      List.map
        (fun (i, k, s) ->
          if Rkutil.Prng.int prng 16 = 0 then (i, k, Float.nan)
          else (i, k, Float.round (s *. 8.0) /. 8.0))
        ts.t_rows;
  }

let enum_case seed =
  let case = gen_case seed in
  let prng = Rkutil.Prng.create (seed lxor 0x2545f491) in
  { case with c_tables = List.map (snap8 prng) case.c_tables }

(* A rank case is a single snapped table plus a WHERE rank() BETWEEN
   window, sometimes with an extra filter conjunct and sometimes
   overshooting the table's cardinality: both clamping paths must agree
   with the oracle. *)
let rank_case seed =
  let prng = Rkutil.Prng.create (seed lxor 0x3ad76b21) in
  let ts = snap8 prng (gen_table prng "T0") in
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
      order_by = Some (Column { table = Some "T0"; name = "score" }, Desc);
      limit = None;
      limit_param = false;
    }
  in
  { c_seed = seed; c_tables = [ ts ]; c_query = query }

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
(* The naive ranked list                                               *)
(* ------------------------------------------------------------------ *)

(* Materialize each base relation from its heap, apply its filter, cross
   them, keep the join conjuncts, score every row with the query's own
   expression, drop NaN totals and sort score-descending, breaking exact
   ties by the canonical column order {!Core.Executor.open_cursor} applies.
   No optimizer or executor code is on this path. The query's k is
   ignored: each oracle takes the prefix it needs. *)
let ranked catalog (query : Core.Logical.t) =
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
    | [] -> invalid_arg "ranked: no relations"
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
  let schema = Relation.schema joined in
  let score =
    match Core.Logical.scoring_expr query with
    | Some s -> Expr.compile_float schema s
    | None -> invalid_arg "ranked: not a ranking query"
  in
  let perm = Core.Executor.canonical_perm schema in
  let rows =
    Relation.tuples joined
    |> List.filter_map (fun tu ->
           let s = score tu in
           if Float.is_nan s then None else Some (tu, s))
    |> List.sort (fun (t1, s1) (t2, s2) ->
           match Float.compare s2 s1 with
           | 0 -> Core.Executor.canonical_compare perm t1 t2
           | c -> c)
  in
  (schema, rows)

(* Map reply rows, whose columns (fully qualified names) follow the chosen
   join order, into the oracle's joined schema, so oracle tuples compare
   cell for cell with them. *)
let projector schema columns =
  let names = List.map Schema.column_name (Schema.columns schema) in
  if List.sort String.compare names <> List.sort String.compare columns then
    Error
      (Printf.sprintf "reply columns [%s] are not the oracle's [%s]"
         (String.concat "; " columns) (String.concat "; " names))
  else
    let idxs =
      List.map (fun c -> Option.get (List.find_index (String.equal c) names)) columns
    in
    Ok (fun t -> Tuple.make (List.map (Tuple.get t) idxs))

(* ------------------------------------------------------------------ *)
(* The shared oracles                                                  *)
(* ------------------------------------------------------------------ *)

type oracle =
  | Scores of (float -> float -> bool)
  | Exact
  | Top_k

let scores_close a b =
  Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.max (Float.abs a) (Float.abs b))

(* The wire renders scores with 6 decimals, so compare with an absolute
   epsilon wider than the rendering granularity. *)
let wire_close a b = Float.abs (a -. b) <= 1e-5

let take k l = List.filteri (fun i _ -> i < k) l

let show_rows rows =
  String.concat "; "
    (List.map (fun (t, s) -> Printf.sprintf "%s@%.9g" (Tuple.to_string t) s) rows)

(* [agree oracle ~k ~expected ~got]: does [got] answer the top-[k] of the
   reference list [expected]? Every oracle first requires the size of
   [expected]'s k-prefix. *)
let agree oracle ~k ~expected ~got =
  let want = take k expected in
  let diverge what =
    Error
      (Printf.sprintf "%s (oracle [%s], got [%s])" what (show_rows want)
         (show_rows got))
  in
  if List.length want <> List.length got then
    Error
      (Printf.sprintf "size mismatch: oracle %d rows, got %d" (List.length want)
         (List.length got))
  else
    match oracle with
    | Scores close ->
        let desc l = List.sort (fun a b -> Float.compare b a) (List.map snd l) in
        if List.for_all2 close (desc want) (desc got) then Ok ()
        else diverge "score multisets diverge"
    | Exact -> (
        let same (t1, s1) (t2, s2) = Float.compare s1 s2 = 0 && Tuple.equal t1 t2 in
        match
          List.find_index Fun.id (List.map2 (fun w g -> not (same w g)) want got)
        with
        | None -> Ok ()
        | Some i -> diverge (Printf.sprintf "rows diverge at rank %d" i))
    | Top_k ->
        let rec sorted = function
          | (_, a) :: ((_, b) :: _ as rest) -> Float.compare a b >= 0 && sorted rest
          | _ -> true
        in
        (* Rows are classified against the k-th score with the same
           tolerance: strictly-above rows are uniquely determined and must
           match as a multiset; rows in the boundary band may resolve to
           any member of the reference's boundary tie group (a single-node
           Top-N keeps an arbitrary subset of a tie too). *)
        let b = match List.rev want with [] -> Float.nan | (_, s) :: _ -> s in
        let at_boundary (_, s) = scores_close s b in
        let above l =
          List.sort Tuple.compare
            (List.filter_map
               (fun ((t, s) as r) ->
                 if s > b && not (at_boundary r) then Some t else None)
               l)
        in
        let tie_group = List.filter at_boundary expected in
        if not (sorted got) then diverge "rows not in non-increasing score order"
        else if not (List.for_all2 (fun (_, a) (_, b) -> scores_close a b) want got)
        then diverge "score sequences diverge"
        else if not (List.equal Tuple.equal (above want) (above got)) then
          diverge "rows above the boundary tie group diverge"
        else if
          not
            (List.for_all
               (fun (t, _) -> List.exists (fun (t', _) -> Tuple.equal t t') tie_group)
               (List.filter at_boundary got))
        then diverge "a boundary row is not in the oracle's tie group"
        else Ok ()
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
    match want with
    | Some w when Core.Logical.is_ranking query ->
        let input =
          if Core.Plan.order_satisfies ~have:sp.Core.Memo.order ~want:(Some w) then
            sp.Core.Memo.plan
          else Core.Plan.Sort { order = w; input = sp.Core.Memo.plan }
        in
        Core.Plan.Top_k { k; input }
    | _ -> sp.Core.Memo.plan
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
(* Per-plan depth and counter assertions                               *)
(* ------------------------------------------------------------------ *)

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

(* A run's rank-join counters, one entry per node in plan pre-order (both
   runs of one plan report its nodes in the same order). *)
let rank_counters res =
  List.map
    (fun (label, _, st) ->
      Printf.sprintf "%s depths [%s] emitted %d" label
        (String.concat ";"
           (List.map string_of_int (Array.to_list (Exec.Exec_stats.depths st))))
        (Exec.Exec_stats.emitted st))
    (rank_join_nodes res)

(* ------------------------------------------------------------------ *)
(* Executions                                                          *)
(* ------------------------------------------------------------------ *)

(* What every execution starts from: the case's tables materialized and
   its query bound. *)
type ctx = {
  case : case;
  catalog : Storage.Catalog.t;
  query : Core.Logical.t;
  env : Core.Cost_model.env;
}

(* [Ok n]: [n] checks passed. [Error (reason, plan)] otherwise. *)
type verdict = (int, string * string option) result

let ( let* ) = Result.bind

let limit ctx = Option.value ~default:max_int ctx.query.Core.Logical.k

let oneline s = String.map (function '\n' -> ' ' | c -> c) s

let paired rows scores =
  if List.length rows <> List.length scores then
    Error "reply rows and scores disagree in length"
  else Ok (List.combine rows scores)

(* The lint-then-run loop of every plan-level execution: lint [plan] with
   the full catalog, then [run] it. *)
let plan_loop ctx plans run : verdict =
  List.fold_left
    (fun acc plan ->
      let* n = acc in
      let desc = Some (Core.Plan.describe plan) in
      let check () =
        match
          Lint.Engine.errors
            (Lint.Engine.lint_plan ~query:ctx.query ~env:ctx.env ctx.catalog plan)
        with
        | d :: _ -> Error ("planlint: " ^ Lint.Diag.to_string d)
        | [] -> run plan
      in
      match check () with
      | Ok () -> Ok (n + 1)
      | Error m -> Error (m, desc)
      | exception e -> Error ("raised: " ^ Printexc.to_string e, desc))
    (Ok 0) plans

(* Every enumerated plan against the naive list. Result tuples are
   re-scored with the query's own expression rather than trusting the
   executor's reported score (which reflects the plan's physical order
   expression, e.g. an unweighted index key that sorts like the weighted
   score), so the check validates the rows, not a side channel. Rank-join
   depths must also stay within the simulated Theorem-2 bound. *)
let exec_plans oracle ctx =
  let score = Option.get (Core.Logical.scoring_expr ctx.query) in
  let _, expected = ranked ctx.catalog ctx.query in
  plan_loop ctx (enumerate_plans ctx.env ctx.query) (fun plan ->
      let res = Core.Executor.run ctx.catalog plan in
      let eval = Expr.compile_float res.Core.Executor.schema score in
      let got = List.map (fun (tu, _) -> (tu, eval tu)) res.Core.Executor.rows in
      let* () = agree oracle ~k:(limit ctx) ~expected ~got in
      depth_check ctx.catalog plan res)

(* Every enumerated plan run tuple-at-a-time ([~vectorized:false], the
   pre-batching interpreter) is the reference for its batch-at-a-time run.
   The batch kernels replicate the scalar interpreter exactly (Null
   propagation, NaN ordering, constant folding in the Value domain), so
   the oracle allows no tolerance; rank joins stay streaming sinks, so
   their depth and emitted counters must match too. *)
let exec_vector oracle ctx =
  plan_loop ctx (enumerate_plans ctx.env ctx.query) (fun plan ->
      let serial = Core.Executor.run ~vectorized:false ctx.catalog plan in
      let vec = Core.Executor.run ~vectorized:true ctx.catalog plan in
      let* () =
        agree oracle ~k:max_int ~expected:serial.Core.Executor.rows
          ~got:vec.Core.Executor.rows
      in
      let a = rank_counters serial and b = rank_counters vec in
      if a = b then Ok ()
      else
        Error
          (Printf.sprintf
             "rank-join counters diverge: [%s] tuple-at-a-time, [%s] vectorized"
             (String.concat "; " a) (String.concat "; " b)))

(* Lint only: optimize with emit-time linting on (every subplan the MEMO
   retains is checked as it is stored), lint each finished plan and the
   optimizer's chosen statement, execute nothing. *)
let exec_lint ctx =
  Lint.Engine.Emit.reset ();
  Lint.Engine.Emit.enable ();
  Fun.protect ~finally:Lint.Engine.Emit.disable @@ fun () ->
  let plans = enumerate_plans ctx.env ctx.query in
  let planned = Core.Optimizer.optimize ~env:ctx.env ctx.catalog ctx.query in
  let* n = plan_loop ctx plans (fun _ -> Ok ()) in
  let clean diags plan =
    match Lint.Engine.errors diags with
    | [] -> Ok ()
    | d :: _ -> Error ("planlint: " ^ Lint.Diag.to_string d, plan)
  in
  let* () =
    clean (Lint.Engine.lint_planned planned)
      (Some (Core.Plan.describe planned.Core.Optimizer.plan))
  in
  let* () = clean (Lint.Engine.Emit.diagnostics ()) None in
  Ok (n + Lint.Engine.Emit.linted () + 1)

(* Both physical variants of a rank window (counted index descent and
   drain-sort-slice) go through the plan loop; then the printed query
   re-enters through the parser and the optimizer's own access-path
   choice. The reference is the window of the naive list over the whole
   table, with any residual filter pruning inside the window. *)
let exec_windows oracle ctx =
  let base = List.hd ctx.query.Core.Logical.relations in
  let table = base.Core.Logical.name in
  let lo, hi = Option.value ~default:(1, 0) ctx.query.Core.Logical.rank_range in
  let dense = ctx.query.Core.Logical.rank_dense in
  let schema, rows =
    ranked ctx.catalog
      {
        ctx.query with
        Core.Logical.relations = [ { base with Core.Logical.filter = None } ];
      }
  in
  let window =
    let lo = max 1 lo in
    if not dense then List.filteri (fun i _ -> i >= lo - 1 && i <= hi - 1) rows
    else begin
      (* dense numbering, derived independently of the engine: walk the
         descending run counting distinct scores *)
      let _, _, rev =
        List.fold_left
          (fun (d, prev, acc) ((_, s) as e) ->
            let d =
              match prev with Some p when Float.compare p s = 0 -> d | _ -> d + 1
            in
            (d, Some s, if d >= lo && d <= hi then e :: acc else acc))
          (0, None, []) rows
      in
      List.rev rev
    end
  in
  let expected =
    match base.Core.Logical.filter with
    | None -> window
    | Some pred ->
        let predf = Expr.compile schema pred in
        List.filter (fun (tu, _) -> predf tu = Value.Bool true) window
  in
  let score = Option.get (Core.Logical.scoring_expr ctx.query) in
  let variant index =
    let access = Core.Plan.Rank_index_scan { table; index; score; lo; hi; dense } in
    match base.Core.Logical.filter with
    | Some pred -> Core.Plan.Filter { pred; input = access }
    | None -> access
  in
  let* n =
    plan_loop ctx [ variant (Some (table ^ "_score")); variant None ] (fun plan ->
        agree oracle ~k:max_int ~expected
          ~got:(Core.Executor.run ctx.catalog plan).Core.Executor.rows)
  in
  let sql = Format.asprintf "%a" Sqlfront.Ast.pp_query ctx.case.c_query in
  match Sqlfront.Sql.query ctx.catalog sql with
  | Error e -> Error ("sql path: " ^ e, None)
  | Ok ans ->
      Result.map_error
        (fun m ->
          ( "sql path: " ^ m,
            Some (Core.Plan.describe ans.Sqlfront.Sql.planned.Core.Optimizer.plan) ))
        (let* got = paired ans.Sqlfront.Sql.rows ans.Sqlfront.Sql.scores in
         let* () = agree oracle ~k:max_int ~expected ~got in
         Ok (n + 1))

(* Ranked enumeration through a [Service] session: PREPARE, EXECUTE at the
   case's k, then FETCH in deterministically varied batch sizes. Every
   growing prefix must agree with the naive list, exhaustion must land
   exactly at its length, and a further FETCH must return nothing. A
   statement that is not cursor-eligible must park no cursor. *)
let exec_session oracle ctx =
  let schema, full = ranked ctx.catalog ctx.query in
  let k0 = Option.value ~default:1 ctx.case.c_query.Sqlfront.Ast.limit in
  let tpl = Sqlfront.Sql.template_of_ast ctx.case.c_query in
  (* Mirror the service's (deterministic) planning to learn up front
     whether the statement is cursor-eligible. *)
  let plan_desc, eligible =
    match
      Result.bind (Sqlfront.Sql.instantiate tpl ~k:k0 ())
        (Sqlfront.Sql.prepare_ast ctx.catalog)
    with
    | Ok p ->
        ( Some (Core.Plan.describe p.Sqlfront.Sql.planned.Core.Optimizer.plan),
          Sqlfront.Sql.cursor_eligible p )
    | Error _ | (exception _) -> (None, false)
  in
  let svc =
    Server.Service.create
      ~config:{ Server.Service.default_config with workers = 2 }
      ctx.catalog
  in
  Fun.protect ~finally:(fun () -> Server.Service.shutdown svc) @@ fun () ->
  let sess = Server.Service.open_session svc in
  Fun.protect ~finally:(fun () -> Server.Service.close_session sess) @@ fun () ->
  let err e =
    Printf.sprintf "server ERR %s: %s"
      (Server.Service.error_code e)
      (Server.Service.error_message e)
  in
  let svc_ok r = Result.map_error err r in
  Result.map_error (fun m -> (m, plan_desc))
  @@
  let* _ =
    svc_ok (Server.Service.prepare sess ~name:"q" (oneline tpl.Sqlfront.Sql.tpl_text))
  in
  let* reply = svc_ok (Server.Service.execute_prepared sess ~k:k0 "q") in
  if not eligible then
    match Server.Service.fetch sess ~name:"q" 1 with
    | Error (Server.Service.Unknown_cursor _) -> Ok 1
    | Ok _ -> Error "FETCH succeeded on a non-enumerable statement"
    | Error e -> Error ("non-enumerable FETCH: " ^ err e)
  else
    let* project = projector schema reply.Server.Service.columns in
    let expected = List.map (fun (t, s) -> (project t, s)) full in
    let total = List.length expected in
    let extend got (r : Server.Service.reply) =
      let* batch = paired r.Server.Service.rows r.Server.Service.scores in
      let got = got @ batch in
      let* () = agree oracle ~k:(List.length got) ~expected ~got in
      Ok (got, List.length batch)
    in
    let prng = Rkutil.Prng.create (ctx.case.c_seed lxor 0x51ed27) in
    let rec fetch_loop got checked =
      if List.length got >= total then Ok checked
      else
        let n = 1 + Rkutil.Prng.int prng 4 in
        let* r = svc_ok (Server.Service.fetch sess ~name:"q" n) in
        let* got, produced = extend got r in
        if produced < n && List.length got < total then
          Error
            (Printf.sprintf "cursor exhausted at %d rows but the oracle has %d"
               (List.length got) total)
        else fetch_loop got (checked + 1)
    in
    let* got, _ = extend [] reply in
    let* checked = fetch_loop got 1 in
    let* past = svc_ok (Server.Service.fetch sess ~name:"q" 3) in
    let* () =
      if past.Server.Service.rows = [] then Ok ()
      else Error "cursor kept producing rows past exhaustion"
    in
    let* () = svc_ok (Server.Service.close_cursor sess "q") in
    Ok checked

(* Trailing "score=<f>" cell of a result row; header lines have none. *)
let wire_scores response =
  List.filter_map
    (fun line ->
      match List.rev (String.split_on_char '\t' line) with
      | last :: _ when String.starts_with ~prefix:"score=" last ->
          float_of_string_opt (String.sub last 6 (String.length last - 6))
      | _ -> None)
    response.Server.Protocol.payload

(* A live [Listener] over the wire: PREPARE with LIMIT ?, then EXECUTE
   twice at two k values against the naive list. The second replay at
   each k must be a plan-cache hit, and afterwards every cached variant
   must pass the planlint cache rule (PL10) plus the full catalog. *)
let exec_wire oracle ctx =
  let _, expected = ranked ctx.catalog ctx.query in
  let tpl = Sqlfront.Sql.template_of_ast ctx.case.c_query in
  let k0 = Option.value ~default:1 ctx.case.c_query.Sqlfront.Ast.limit in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rankcheck-%d-%d.sock" (Unix.getpid ()) ctx.case.c_seed)
  in
  let endpoint = Server.Listener.Unix_socket sock in
  let listener =
    Server.Listener.start
      ~config:{ Server.Service.default_config with workers = 2 }
      endpoint ctx.catalog
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
  let replay k i =
    Result.map_error (Printf.sprintf "k=%d replay %d: %s" k i)
    @@
    let* resp = request (Printf.sprintf "EXECUTE q %d" k) in
    let got = List.map (fun s -> ([||], s)) (wire_scores resp) in
    let* () = agree oracle ~k ~expected ~got in
    if i = 1 && List.assoc_opt "cached" resp.Server.Protocol.fields <> Some "1"
    then Error "expected a cache hit"
    else Ok ()
  in
  let audit (key, epoch, prepared) =
    match Lint.Engine.errors (Lint.Engine.lint_prepared ~key ~epoch prepared) with
    | [] -> Ok ()
    | dg :: _ -> Error ("planlint cache: " ^ Lint.Diag.to_string dg)
  in
  let each f l =
    List.fold_left (fun acc x -> Result.bind acc (fun () -> f x)) (Ok ()) l
  in
  Result.map_error (fun m -> (m, None))
  @@
  let* _ =
    request (Printf.sprintf "PREPARE q %s" (oneline tpl.Sqlfront.Sql.tpl_text))
  in
  let replays = [ (k0, 0); (k0, 1); (k0 + 3, 0); (k0 + 3, 1) ] in
  let* () = each (fun (k, i) -> replay k i) replays in
  let entries = Server.Service.cache_entries (Server.Listener.service listener) in
  let* () = each audit entries in
  Ok (List.length replays + List.length entries)

(* The scatter/gather coordinator over an in-process cluster of [shards]
   engine shards hash-partitioned on [key]. Generated queries join only on
   [key], so every case is co-partitioned and must scatter. Plan shapes
   associate the weighted sum differently, so the [Top_k] oracle compares
   scores within float association jitter. A routed INSERT then goes
   through the coordinator (mirror first, then the owning shard) and the
   query re-runs, so mis-routed DML, stale scatter caches and epoch bugs
   surface as divergence. *)
let exec_cluster ~shards oracle ctx =
  let sql = Format.asprintf "%a" Sqlfront.Ast.pp_query ctx.case.c_query in
  let config = { Server.Service.default_config with workers = 1 } in
  let cluster = Shard.Cluster.start ~config ~n:shards ctx.catalog in
  Fun.protect ~finally:(fun () -> Shard.Cluster.stop cluster) @@ fun () ->
  let ses = Shard.Coordinator.open_session (Shard.Cluster.coordinator cluster) in
  Fun.protect ~finally:(fun () -> Shard.Coordinator.close_session ses) @@ fun () ->
  let query sql =
    Result.map_error Server.Service.error_message (Shard.Coordinator.query ses sql)
  in
  let round label =
    Result.map_error (fun m -> label ^ ": " ^ m)
    @@
    let schema, full = ranked ctx.catalog ctx.query in
    let* reply = query sql in
    if not reply.Shard.Coordinator.scattered then
      Error "co-partitioned top-k did not scatter"
    else
      let* project = projector schema reply.Shard.Coordinator.columns in
      let* got = paired reply.Shard.Coordinator.rows reply.Shard.Coordinator.scores in
      agree oracle ~k:(limit ctx)
        ~expected:(List.map (fun (t, s) -> (project t, s)) full)
        ~got
  in
  Result.map_error (fun m -> (m, None))
  @@
  let* () = round "initial" in
  (* key 0 always exists in every join's key domain *)
  let* r =
    Result.map_error (( ^ ) "routed INSERT: ")
      (query "INSERT INTO T0 VALUES (100001, 0, 1.75)")
  in
  let* () =
    if r.Shard.Coordinator.affected = Some 1 then Ok ()
    else Error "routed INSERT: expected affected=1"
  in
  let* () = round "after routed INSERT" in
  Ok 3

(* ------------------------------------------------------------------ *)
(* The mode table                                                      *)
(* ------------------------------------------------------------------ *)

type mode = {
  title : string;  (* "vector mode"; "" for plain mode *)
  args : string list;  (* the rankopt words selecting the mode *)
  noun : string;  (* what [o_plans] counts *)
  gen : int -> case;
  exec : ctx -> verdict;
  oracle : oracle option;  (* the oracle [exec] answers to; none for lint *)
  shrinks : bool;
}

let entry ~title ~args ~noun ~gen ~shrinks oracle exec =
  { title; args; noun; gen; exec = exec oracle; oracle = Some oracle; shrinks }

let plain =
  entry ~title:"" ~args:[ "fuzz" ] ~noun:"plans" ~gen:gen_case ~shrinks:true
    (Scores scores_close) exec_plans

let vector =
  entry ~title:"vector mode" ~args:[ "fuzz"; "--vector" ]
    ~noun:"vectorized plan pairs" ~gen:gen_case ~shrinks:true Exact exec_vector

let enum =
  entry ~title:"enum mode" ~args:[ "fuzz"; "--enum" ] ~noun:"fetch prefixes"
    ~gen:enum_case ~shrinks:true Exact exec_session

let rank =
  entry ~title:"rank mode" ~args:[ "fuzz"; "--rank" ] ~noun:"window executions"
    ~gen:rank_case ~shrinks:true Exact exec_windows

(* The live-server modes start a listener or a cluster per check, so
   their failures are reported unshrunk. *)
let server =
  entry ~title:"server mode" ~args:[ "fuzz"; "--server" ]
    ~noun:"server executions" ~gen:gen_case ~shrinks:false (Scores wire_close)
    exec_wire

let shard n =
  entry
    ~title:(Printf.sprintf "shard mode, %d shards" n)
    ~args:[ "fuzz"; "--shard"; string_of_int n ]
    ~noun:"sharded statements" ~gen:gen_case ~shrinks:false Top_k
    (exec_cluster ~shards:n)

(* Lint failures are already localized by the diagnostic's plan path. *)
let lint =
  {
    title = "lint mode";
    args = [ "lint" ];
    noun = "plans linted";
    gen = gen_case;
    exec = exec_lint;
    oracle = None;
    shrinks = false;
  }

let modes = [ plain; vector; enum; rank; server; shard 4; lint ]
let title m = m.title
let noun m = m.noun
let oracle m = m.oracle

let replay m seed =
  match m.args with
  | [ "lint" ] -> Printf.sprintf "rankopt lint --fuzz-seed %d --fuzz-cases 1" seed
  | args ->
      Printf.sprintf "rankopt %s --seed %d --cases 1" (String.concat " " args) seed

let mode_of_flags = function
  | [ "fuzz"; "--shard"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 2 -> Ok (shard n)
      | _ -> Error (Printf.sprintf "--shard %s: shard count must be >= 2" n))
  | args -> (
      match List.find_opt (fun m -> m.args = args) modes with
      | Some m -> Ok m
      | None ->
          Error
            (Printf.sprintf
               "%s: give at most one of --vector, --enum, --rank, --server, \
                --shard N"
               (String.concat " " args)))

(* ------------------------------------------------------------------ *)
(* Checking, shrinking and the sweep                                   *)
(* ------------------------------------------------------------------ *)

let check mode case : verdict =
  let catalog = build_catalog case in
  match Sqlfront.Binder.bind_result catalog case.c_query with
  | Error e -> Error (e, None)
  | exception e -> Error ("bind raised: " ^ Printexc.to_string e, None)
  | Ok bound -> (
      let query = bound.Sqlfront.Binder.logical in
      let k = Option.value ~default:1 query.Core.Logical.k in
      let env = Core.Cost_model.default_env ~k_min:(min k 1000) catalog query in
      match mode.exec { case; catalog; query; env } with
      | v -> v
      | exception e -> Error ("raised: " ^ Printexc.to_string e, None))

(* Drop table rows one at a time, then query terms (non-join WHERE
   conjuncts), then try k = 1, keeping every step that still fails. *)
let shrink mode case =
  let budget = ref 600 in
  let try_smaller current candidate =
    if !budget <= 0 then current
    else begin
      decr budget;
      if Result.is_error (check mode candidate) then candidate else current
    end
  in
  (* Row ids are unique within a table; rows may hold NaN scores, which
     structural equality never matches. *)
  let drop_row case name id =
    let drop t =
      if String.equal t.t_name name then
        { t with t_rows = List.filter (fun (i, _, _) -> i <> id) t.t_rows }
      else t
    in
    { case with c_tables = List.map drop case.c_tables }
  in
  let shrink_rows case =
    List.fold_left
      (fun case ts ->
        List.fold_left
          (fun case (id, _, _) -> try_smaller case (drop_row case ts.t_name id))
          case ts.t_rows)
      case case.c_tables
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
    List.fold_left
      (fun case cond ->
        if is_join_conjunct cond then case
        else
          let q = case.c_query in
          let where = List.filter (( <> ) cond) q.Sqlfront.Ast.where in
          try_smaller case { case with c_query = { q with Sqlfront.Ast.where } })
      case case.c_query.Sqlfront.Ast.where
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
     a small fixpoint, bounded by the budget. A step that keeps nothing
     returns its input itself. *)
  let rec fix case n =
    let smaller = shrink_k (shrink_filters (shrink_rows case)) in
    if n <= 0 || smaller == case then case else fix smaller (n - 1)
  in
  fix case 4

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

let run ?(progress = fun _ -> ()) mode ~seed ~cases () =
  let failures = ref [] in
  let checked = ref 0 in
  for i = 0 to cases - 1 do
    progress i;
    let case = mode.gen (seed + i) in
    match check mode case with
    | Ok n -> checked := !checked + n
    | Error e ->
        (* The shrunk case's own reason, or the original one if shrinking
           lost the failure. *)
        let case, (reason, plan) =
          if not mode.shrinks then (case, e)
          else
            let shrunk = shrink mode case in
            (shrunk, match check mode shrunk with Error e' -> e' | Ok _ -> e)
        in
        let prefix = if mode.title = "" then "" else mode.title ^ ": " in
        failures :=
          {
            f_seed = seed + i;
            f_reason = prefix ^ reason;
            f_plan = plan;
            f_case = case;
            f_replay = replay mode (seed + i);
          }
          :: !failures
  done;
  { o_cases = cases; o_plans = !checked; o_failures = List.rev !failures }
