open Relalg
module Plan = Core.Plan
module Logical = Core.Logical
module Cost_model = Core.Cost_model
module Memo = Core.Memo
module Propagate = Core.Propagate
module Io = Core.Interesting_orders

let catalog =
  [
    ("PL01-schema", "expressions are bound and well-typed at every operator boundary");
    ("PL02-order", "a claimed interesting order is justified by inputs + semantics");
    ("PL03-pipeline", "pipelining flags match the recomputed streaming property");
    ("PL04-filter", "every logical filter and join predicate survives into the physical plan");
    ("PL05-kprop", "propagated k requirements and depths are sane and monotone in k");
    ("PL06-depth", "rank-join depth estimates lie in [1, input cardinality], monotone in k");
    ("PL07-cost", "cost estimates are finite, monotone in x, and dominate consumed inputs");
    ("PL08-memo", "memo entries are valid masks and retained property bits match recomputation");
    ("PL09-topk", "a ranking plan is one Top-k over a justified scoring order; k-interval is sane");
    ("PL10-cache", "plan-cache keys are canonical and bound k lies in the variant's interval");
    ("PL12-enum", "the Enumerate bit matches recomputed cursor-resumability; anyK shapes are sound");
    ("PL13-rank", "a by-rank scan's window is sane and its claimed order is justified by an order-statistic index on the scored column");
    ("PL14-shard", "a gather-merge sits over distinct same-score remote shard streams, each bounded at k' >= the gather's k");
    ("PL15-vector", "batched regions (vector spines, fused top-k sink) contain no rank join; the Vectorized bit matches recomputation");
  ]

let d rule ?hint path fmt = Printf.ksprintf (fun m -> Diag.make ~rule ?hint ~path m) fmt

(* Relative-plus-absolute tolerance for float comparisons: estimates are
   recomputed through the same code paths, so anything beyond rounding noise
   is a real inconsistency. *)
let tol x = 1e-6 *. (1.0 +. Float.abs x)

let ge a b = a >= b -. tol b
let approx a b = Float.abs (a -. b) <= tol b
let bad_float x = Float.is_nan x

(* ------------------------------------------------------------------ *)
(* PL01-schema *)

let rule01 = "PL01-schema"

let check_bound_typed ~path ~what kind schema expr =
  let checker =
    match kind with `Pred -> Walk.check_predicate | `Num -> Walk.check_numeric
  in
  match schema with
  | None -> [] (* input schema underivable: already reported at the scan *)
  | Some s -> (
      match checker s expr with
      | Ok () -> []
      | Error msg -> [ d rule01 path "%s: %s" what msg ])

let schema_node catalog (f : Walk.facts) =
  let path = f.Walk.path in
  let child i = List.nth_opt f.Walk.children i in
  let child_schema i = Option.bind (child i) (fun c -> c.Walk.schema) in
  match f.Walk.plan with
  | Plan.Table_scan { table } -> (
      match Storage.Catalog.find_table catalog table with
      | Some _ -> []
      | None -> [ d rule01 path "unknown table %s" table ])
  | Plan.Index_scan { table; index; key; _ } -> (
      match Storage.Catalog.find_table catalog table with
      | None -> [ d rule01 path "unknown table %s" table ]
      | Some info -> (
          match
            List.find_opt
              (fun ix -> String.equal ix.Storage.Catalog.ix_name index)
              info.Storage.Catalog.tb_indexes
          with
          | None -> [ d rule01 path "unknown index %s on %s" index table ]
          | Some ix ->
              if Expr.equal ix.Storage.Catalog.ix_key key then []
              else
                [
                  d rule01 path
                    ~hint:"scan key must be the index's key expression"
                    "index %s key mismatch: scan claims %s, index is on %s"
                    index (Expr.to_string key)
                    (Expr.to_string ix.Storage.Catalog.ix_key);
                ]))
  | Plan.Rank_index_scan { table; _ } -> (
      (* index existence and key agreement are PL13's finding *)
      match Storage.Catalog.find_table catalog table with
      | Some _ -> []
      | None -> [ d rule01 path "unknown table %s" table ])
  | Plan.Remote_scan { tables; _ } ->
      (* k' soundness and merge-order justification are PL14's findings *)
      List.concat_map
        (fun table ->
          match Storage.Catalog.find_table catalog table with
          | Some _ -> []
          | None -> [ d rule01 path "unknown table %s" table ])
        tables
  | Plan.Gather_merge { inputs; _ } ->
      if inputs = [] then [ d rule01 path "gather over zero shards" ] else []
  | Plan.Filter { pred; _ } ->
      check_bound_typed ~path ~what:"filter predicate" `Pred (child_schema 0) pred
  | Plan.Sort { order; _ } -> (
      (* sort keys may be any well-typed expression (string merge keys are
         legal); scores are checked numeric where they are used as scores *)
      match child_schema 0 with
      | None -> []
      | Some s -> (
          match Walk.type_of s order.Plan.expr with
          | Ok _ -> []
          | Error msg -> [ d rule01 path "sort key: %s" msg ]))
  | Plan.Top_k { k; _ } ->
      if k >= 0 then [] else [ d rule01 path "negative k (%d)" k ]
  | Plan.Join { algo; cond; left_score; right_score; _ } ->
      let lkey = Expr.col ~relation:cond.Logical.left_table cond.Logical.left_column in
      let rkey = Expr.col ~relation:cond.Logical.right_table cond.Logical.right_column in
      let side_key side schema key (table, column) =
        match schema with
        | None -> []
        | Some s ->
            if Expr.bound_by s key then []
            else
              [
                d rule01 path "join key %s.%s not on the %s side" table column
                  side;
              ]
      in
      let score side schema = function
        | None -> []
        | Some e ->
            check_bound_typed ~path
              ~what:(side ^ " score expression")
              `Num schema e
      in
      side_key "left" (child_schema 0) lkey
        (cond.Logical.left_table, cond.Logical.left_column)
      @ side_key "right" (child_schema 1) rkey
          (cond.Logical.right_table, cond.Logical.right_column)
      @ score "left" (child_schema 0) left_score
      @ score "right" (child_schema 1) right_score
      @
      (match algo with
      | Plan.Index_nl -> (
          match child 1 with
          | None -> []
          | Some r -> (
              match Plan.relations r.Walk.plan with
              | [ single ] when String.equal single cond.Logical.right_table -> (
                  match
                    Storage.Catalog.find_index_on_expr catalog
                      ~table:cond.Logical.right_table rkey
                  with
                  | Some _ -> []
                  | None ->
                      [
                        d rule01 path "INL join without an index on %s.%s"
                          cond.Logical.right_table cond.Logical.right_column;
                      ])
              | _ ->
                  [
                    d rule01 path
                      "INL right side must be the single probed relation %s"
                      cond.Logical.right_table;
                  ]))
      | _ -> [])
  | Plan.Rank_join { inputs; scores; keys } ->
      if List.length inputs < 2 then
        [ d rule01 path "rank join needs >= 2 inputs" ]
      else if
        List.length inputs <> List.length scores
        || List.length inputs <> List.length keys
      then [ d rule01 path "rank join arity mismatch (scores or keys)" ]
      else
        List.concat
          (List.mapi
             (fun i (score, (table, column)) ->
               let schema = child_schema i in
               let keycol = Expr.col ~relation:table column in
               (match schema with
               | Some s when not (Expr.bound_by s keycol) ->
                   [ d rule01 path "rank join key %s.%s unbound" table column ]
               | _ -> [])
               @ check_bound_typed ~path
                   ~what:(Printf.sprintf "rank join score %d" i)
                   `Num schema score)
             (List.combine scores keys))
  | Plan.Any_k { inputs; scores; keys; _ } ->
      if List.length inputs < 2 then
        [ d rule01 path "anyK needs >= 2 inputs" ]
      else if
        List.length inputs <> List.length scores
        || List.length keys <> List.length inputs - 1
      then [ d rule01 path "anyK arity mismatch (scores or key bindings)" ]
      else
        List.concat
          (List.mapi
             (fun i score ->
               check_bound_typed ~path
                 ~what:(Printf.sprintf "anyK score %d" i)
                 `Num (child_schema i) score)
             scores)
        @ List.concat
            (List.mapi
               (fun j (p, pk, ck) ->
                 let i = j + 1 in
                 if p < 0 || p >= i then
                   [
                     d rule01 path
                       "anyK key %d: parent %d does not precede input %d" j p i;
                   ]
                 else
                   (match child_schema p with
                   | Some s when not (Expr.bound_by s pk) ->
                       [
                         d rule01 path "anyK key %d: parent key %s unbound" j
                           (Expr.to_string pk);
                       ]
                   | _ -> [])
                   @
                   match child_schema i with
                   | Some s when not (Expr.bound_by s ck) ->
                       [
                         d rule01 path "anyK key %d: child key %s unbound" j
                           (Expr.to_string ck);
                       ]
                   | _ -> [])
               keys)

let schema_rule catalog facts =
  Walk.fold (fun acc f -> acc @ schema_node catalog f) [] facts

(* ------------------------------------------------------------------ *)
(* PL02-order *)

let rule02 = "PL02-order"

let order_node (f : Walk.facts) =
  let path = f.Walk.path in
  let missing_scores =
    match f.Walk.plan with
    | Plan.Join { algo = Plan.Nrjn; left_score = None; _ } ->
        [ d rule02 path "NRJN outer input lacks a score expression" ]
    | _ -> []
  in
  let claim =
    match Plan.order_of f.Walk.plan with
    | None -> []
    | Some o -> (
        match f.Walk.produced with
        | Some p when Plan.order_equal p o -> []
        | _ ->
            [
              d rule02 path
                ~hint:
                  "the inputs do not arrive in the order this operator needs \
                   to produce its claim"
                "%s claims order %s %s it cannot justify"
                (Plan.describe f.Walk.plan)
                (Expr.to_string o.Plan.expr)
                (match o.Plan.direction with Io.Asc -> "ASC" | Io.Desc -> "DESC");
            ])
  in
  missing_scores @ claim

let order_rule facts = Walk.fold (fun acc f -> acc @ order_node f) [] facts

(* ------------------------------------------------------------------ *)
(* PL03-pipeline *)

let rule03 = "PL03-pipeline"

let pipeline_rule ?stored facts =
  let per_node =
    Walk.fold
      (fun acc (f : Walk.facts) ->
        let claimed = Plan.pipelined f.Walk.plan in
        if claimed = f.Walk.streaming then acc
        else
          acc
          @ [
              d rule03 f.Walk.path
                "%s is marked %s but a recomputation says %s"
                (Plan.describe f.Walk.plan)
                (if claimed then "pipelined" else "blocking")
                (if f.Walk.streaming then "pipelined" else "blocking");
            ])
      [] facts
  in
  per_node
  @
  match stored with
  | Some bit when bit <> facts.Walk.streaming ->
      [
        d rule03 facts.Walk.path
          ~hint:"the MEMO property bit disagrees with the plan shape"
          "stored pipelining bit is %b but the plan is %s" bit
          (if facts.Walk.streaming then "pipelined" else "blocking");
      ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* PL04-filter *)

let rule04 = "PL04-filter"

let rec conjuncts = function
  | Expr.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* Everything the physical plan applies: filter conjuncts, binary join
   conditions, and rank-join key sets (which imply all pairwise equalities
   among their member columns). *)
type applied = {
  filters : Expr.t list;
  join_conds : Logical.join_pred list;
  key_sets : (string * string) list list;  (* (table, column) per input *)
}

let applied_of facts =
  Walk.fold
    (fun acc (f : Walk.facts) ->
      match f.Walk.plan with
      | Plan.Filter { pred; _ } ->
          { acc with filters = conjuncts pred @ acc.filters }
      | Plan.Join { cond; _ } -> { acc with join_conds = cond :: acc.join_conds }
      | Plan.Rank_join { keys; _ } -> { acc with key_sets = keys :: acc.key_sets }
      | Plan.Any_k { keys; _ } ->
          (* each key binding enforces parent_key = child_key, the same
             conjunct shape a residual filter would carry *)
          let eqs =
            List.map (fun (_, pk, ck) -> Expr.Cmp (Expr.Eq, pk, ck)) keys
          in
          { acc with filters = eqs @ acc.filters }
      | _ -> acc)
    { filters = []; join_conds = []; key_sets = [] }
    facts

let same_pred (a : Logical.join_pred) (b : Logical.join_pred) =
  (String.equal a.Logical.left_table b.Logical.left_table
  && String.equal a.Logical.left_column b.Logical.left_column
  && String.equal a.Logical.right_table b.Logical.right_table
  && String.equal a.Logical.right_column b.Logical.right_column)
  || String.equal a.Logical.left_table b.Logical.right_table
     && String.equal a.Logical.left_column b.Logical.right_column
     && String.equal a.Logical.right_table b.Logical.left_table
     && String.equal a.Logical.right_column b.Logical.left_column

(* A residual join predicate shows up as the filter conjunct
   [l.c1 = r.c2] (either orientation). *)
let filter_implements (j : Logical.join_pred) = function
  | Expr.Cmp
      ( Expr.Eq,
        Expr.Col { relation = Some at; name = ac },
        Expr.Col { relation = Some bt; name = bc } ) ->
      same_pred j
        {
          Logical.left_table = at;
          left_column = ac;
          right_table = bt;
          right_column = bc;
        }
  | _ -> false

let keys_implement (j : Logical.join_pred) keys =
  List.mem (j.Logical.left_table, j.Logical.left_column) keys
  && List.mem (j.Logical.right_table, j.Logical.right_column) keys

let filter_rule ~query facts =
  let applied = applied_of facts in
  let covered = Plan.relations facts.Walk.plan in
  let has r = List.exists (String.equal r) covered in
  let path = facts.Walk.path in
  let missing_filters =
    List.concat_map
      (fun (b : Logical.base) ->
        match b.Logical.filter with
        | Some pred when has b.Logical.name ->
            List.filter_map
              (fun c ->
                if List.exists (Expr.equal c) applied.filters then None
                else
                  Some
                    (d rule04 path
                       ~hint:
                         "the access path or join dropped a selection the \
                          query requires"
                       "filter %s on %s is not applied anywhere in the plan"
                       (Expr.to_string c) b.Logical.name))
              (conjuncts pred)
        | _ -> [])
      query.Logical.relations
  in
  let missing_joins =
    List.filter_map
      (fun (j : Logical.join_pred) ->
        if not (has j.Logical.left_table && has j.Logical.right_table) then None
        else if
          List.exists (same_pred j) applied.join_conds
          || List.exists (filter_implements j) applied.filters
          || List.exists (keys_implement j) applied.key_sets
        then None
        else
          Some
            (d rule04 path
               "join predicate %s.%s = %s.%s is not applied anywhere in the \
                plan"
               j.Logical.left_table j.Logical.left_column j.Logical.right_table
               j.Logical.right_column))
      query.Logical.joins
  in
  missing_filters @ missing_joins

(* ------------------------------------------------------------------ *)
(* PL05-kprop *)

let rule05 = "PL05-kprop"

(* The inputs a rank-join node reads to the depths it is annotated with. *)
let rank_inputs = function
  | Plan.Rank_join { inputs; _ } -> inputs
  | Plan.Join { algo = Plan.Nrjn; left; right; _ } -> [ left; right ]
  | _ -> []

let input_cards env plan =
  Array.of_list
    (List.map
       (fun p -> (Cost_model.estimate env p).Cost_model.rows)
       (rank_inputs plan))

(* Shared by PL05 and PL06: bound checks on one rank join's per-input
   depths. *)
let check_depths_at ~rule ~path ~cards (depths : float array) =
  if Array.length depths <> Array.length cards then
    [
      d rule path "%d depths for %d inputs" (Array.length depths)
        (Array.length cards);
    ]
  else
    List.concat
      (List.mapi
         (fun i dv ->
           let card = cards.(i) in
           if bad_float dv || dv = Float.infinity then
             [ d rule path "input %d depth is not finite (%g)" i dv ]
           else if dv < 1.0 -. tol 1.0 then
             [ d rule path "input %d depth %g is below 1" i dv ]
           else if not (ge (Float.max 1.0 card) dv) then
             [
               d rule path
                 ~hint:"an operator cannot read more tuples than its input holds"
                 "input %d depth %g exceeds input cardinality %g" i dv card;
             ]
           else [])
         (Array.to_list depths))

(* Shared by PL05 and PL06: no input depth shrinks from [k1] to [k2]. *)
let check_growth ~rule ~path ~k1 ~k2 (d1 : float array) (d2 : float array) =
  List.concat
    (List.mapi
       (fun i (a, b) ->
         if ge b a then []
         else
           [
             d rule path "input %d depth shrinks as k grows: %g at k=%g, %g at k=%g"
               i a k1 b k2;
           ])
       (List.combine (Array.to_list d1) (Array.to_list d2)))

let check_propagation env ~k (ann : Propagate.annotation) =
  let root_required = float_of_int (max 1 k) in
  let root =
    if approx ann.Propagate.required root_required then []
    else
      [
        d rule05 "prop:root" "root requirement is %g, expected %g"
          ann.Propagate.required root_required;
      ]
  in
  let rec go path (a : Propagate.annotation) =
    let here =
      (if bad_float a.Propagate.required then
         [ d rule05 path "requirement is NaN" ]
       else if a.Propagate.required < 0.0 then
         [ d rule05 path "requirement is negative (%g)" a.Propagate.required ]
       else [])
      @
      match a.Propagate.depths with
      | Some depths ->
          check_depths_at ~rule:rule05 ~path
            ~cards:(input_cards env a.Propagate.node) depths
      | None -> []
    in
    here
    @ List.concat
        (List.mapi
           (fun i c -> go (Printf.sprintf "%s/%d" path i) c)
           a.Propagate.children)
  in
  root @ go "prop:root" ann

let rec zip_monotone ~k path (a : Propagate.annotation)
    (b : Propagate.annotation) =
  let here =
    (if ge b.Propagate.required a.Propagate.required then []
     else
       [
         d rule05 path
           "requirement shrinks as k grows: %g at k, %g at 2k"
           a.Propagate.required b.Propagate.required;
       ])
    @
    match (a.Propagate.depths, b.Propagate.depths) with
    | Some da, Some db when Array.length da = Array.length db ->
        check_growth ~rule:rule05 ~path ~k1:(float_of_int k)
          ~k2:(float_of_int (2 * k)) da db
    | _ -> []
  in
  here
  @ List.concat
      (List.mapi
         (fun i (ca, cb) ->
           zip_monotone ~k (Printf.sprintf "%s/%d" path i) ca cb)
         (List.combine a.Propagate.children b.Propagate.children))

let propagation_rule env ~k plan =
  let k = max 1 k in
  let ann = Propagate.run env ~k plan in
  let ann2 = Propagate.run env ~k:(2 * k) plan in
  check_propagation env ~k ann @ zip_monotone ~k "prop:root" ann ann2

(* ------------------------------------------------------------------ *)
(* PL06-depth *)

let rule06 = "PL06-depth"

let check_depths ~path ~cards depths =
  check_depths_at ~rule:rule06 ~path ~cards depths

(* [f path node] at every node of [plan], pre-order, paths as [Walk]
   names them. *)
let rec concat_nodes f path plan =
  f path plan
  @ List.concat_map
      (fun (c, seg) -> concat_nodes f (path ^ "/" ^ seg) c)
      (Walk.children_of plan)

let depth_rule env plan =
  let k1 = float_of_int (max 1 env.Cost_model.k_min) in
  let k2 = 2.0 *. k1 in
  concat_nodes
    (fun path plan ->
      match rank_inputs plan with
      | [] -> []
      | _ ->
          let cards = input_cards env plan in
          let d1 = Cost_model.rank_join_depths env plan ~k:k1 in
          let d2 = Cost_model.rank_join_depths env plan ~k:k2 in
          check_depths ~path ~cards d1
          @ check_depths ~path ~cards d2
          @ check_growth ~rule:rule06 ~path ~k1 ~k2 d1 d2)
    "plan:root" plan

(* ------------------------------------------------------------------ *)
(* PL07-cost *)

let rule07 = "PL07-cost"

let check_estimate ~path ?child_floor (est : Cost_model.estimate) =
  let basic =
    (if bad_float est.Cost_model.rows || est.Cost_model.rows < 0.0 then
       [ d rule07 path "estimated rows is %g" est.Cost_model.rows ]
     else [])
    @
    if
      bad_float est.Cost_model.total_cost
      || est.Cost_model.total_cost < 0.0
      || est.Cost_model.total_cost = Float.infinity
    then [ d rule07 path "total cost is %g" est.Cost_model.total_cost ]
    else []
  in
  if basic <> [] then basic
  else
    let rows = Float.max 1.0 est.Cost_model.rows in
    let samples =
      [ 1.0; rows /. 4.0; rows /. 2.0; (3.0 *. rows) /. 4.0; rows; 2.0 *. rows ]
      |> List.map (Float.max 1.0)
    in
    let costs = List.map est.Cost_model.cost_at samples in
    let finite =
      List.concat
        (List.map2
           (fun x c ->
             if bad_float c || c < 0.0 || c = Float.infinity then
               [ d rule07 path "cost_at %g is %g" x c ]
             else [])
           samples costs)
    in
    let rec mono = function
      | (x1, c1) :: ((x2, c2) :: _ as rest) ->
          (if ge c2 c1 then []
           else
             [
               d rule07 path
                 ~hint:"producing more rows can never cost less"
                 "cost_at is not monotone: cost_at %g = %g but cost_at %g = %g"
                 x1 c1 x2 c2;
             ])
          @ mono rest
      | _ -> []
    in
    let agree =
      let at_rows = est.Cost_model.cost_at rows in
      if approx at_rows est.Cost_model.total_cost then []
      else
        [
          d rule07 path
            "cost_at full output (%g) disagrees with total cost (%g)" at_rows
            est.Cost_model.total_cost;
        ]
    in
    let floor =
      match child_floor with
      | Some f when not (ge est.Cost_model.total_cost f) ->
          [
            d rule07 path
              ~hint:
                "a full-consumption operator must pay at least its inputs' \
                 total cost"
              "total cost %g is below the consumed inputs' cost %g"
              est.Cost_model.total_cost f;
          ]
      | _ -> []
    in
    finite @ mono (List.combine samples costs) @ agree @ floor

let cost_rule env plan =
  let est = Cost_model.estimate env in
  let node path plan =
    let e = est plan in
    let rows_leq child what =
      let ce = est child in
      if ge (ce.Cost_model.rows *. (1.0 +. 1e-9)) e.Cost_model.rows then []
      else
        [
          d rule07 path "%s emits %g rows, more than its input's %g" what
            e.Cost_model.rows ce.Cost_model.rows;
        ]
    in
    let rows_leq_cross inputs =
      let cross =
        List.fold_left (fun acc i -> acc *. (est i).Cost_model.rows) 1.0 inputs
      in
      if ge (cross *. (1.0 +. 1e-9)) e.Cost_model.rows then []
      else
        [
          d rule07 path "join emits %g rows, more than the cross product %g"
            e.Cost_model.rows cross;
        ]
    in
    match plan with
      | Plan.Table_scan _ | Plan.Index_scan _ | Plan.Rank_index_scan _
      | Plan.Remote_scan _ ->
          check_estimate ~path e
      | Plan.Gather_merge { inputs; _ } ->
          (* no child floor: the threshold merge legitimately stops shards
             early, so the gather undercuts the shards' serial totals *)
          check_estimate ~path e
          @
          let sum =
            List.fold_left (fun acc i -> acc +. (est i).Cost_model.rows) 0.0
              inputs
          in
          if ge (sum *. (1.0 +. 1e-9)) e.Cost_model.rows then []
          else
            [
              d rule07 path
                "gather emits %g rows, more than its shards' combined %g"
                e.Cost_model.rows sum;
            ]
      | Plan.Filter { input; _ } ->
          check_estimate ~path
            ~child_floor:(est input).Cost_model.total_cost e
          @ rows_leq input "filter"
      | Plan.Sort { input; _ } ->
          check_estimate ~path
            ~child_floor:(est input).Cost_model.total_cost e
          @ rows_leq input "sort"
      | Plan.Top_k { input; _ } -> check_estimate ~path e @ rows_leq input "Top-k"
      | Plan.Join { algo; left; right; _ } ->
          let l = est left and r = est right in
          let floor =
            match algo with
            | Plan.Nested_loops | Plan.Hash | Plan.Sort_merge ->
                Some (l.Cost_model.total_cost +. r.Cost_model.total_cost)
            | Plan.Index_nl ->
                (* probes replace the inner's scan cost; only the outer is
                   consumed in full *)
                Some l.Cost_model.total_cost
            | Plan.Nrjn -> None (* an early-out operator *)
          in
          check_estimate ~path ?child_floor:floor e @ rows_leq_cross [ left; right ]
      | Plan.Rank_join { inputs; _ } ->
          (* an early-out operator: no floor *)
          check_estimate ~path e @ rows_leq_cross inputs
      | Plan.Any_k { inputs; _ } ->
          (* the build phase consumes every input in full, so the inputs'
             serial totals are a sound floor on the anyK estimate *)
          let floor =
            List.fold_left
              (fun acc i -> acc +. (est i).Cost_model.total_cost)
              0.0 inputs
          in
          check_estimate ~path ~child_floor:floor e
  in
  concat_nodes node "plan:root" plan

(* ------------------------------------------------------------------ *)
(* PL08-memo *)

let rule08 = "PL08-memo"

let order_opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> Plan.order_equal a b
  | _ -> false

let subplan_rule env ?key (sp : Memo.subplan) =
  let path = Printf.sprintf "memo:%s" (Plan.describe sp.Memo.plan) in
  let mask_check =
    match key with
    | None -> []
    | Some key ->
        let mask =
          Core.Enumerator.relation_mask env (Plan.relations sp.Memo.plan)
        in
        if mask = key then []
        else
          [
            d rule08 path
              "entry key %#x does not match the plan's relation mask %#x" key
              mask;
          ]
  in
  let order_check =
    if order_opt_equal sp.Memo.order (Plan.order_of sp.Memo.plan) then []
    else
      [
        d rule08 path
          ~hint:"the retained property bits must match the plan shape"
          "stored order property disagrees with the plan's order";
      ]
  in
  let est_check =
    let fresh = Cost_model.estimate env sp.Memo.plan in
    (if approx sp.Memo.est.Cost_model.rows fresh.Cost_model.rows then []
     else
       [
         d rule08 path "stored row estimate %g disagrees with recomputation %g"
           sp.Memo.est.Cost_model.rows fresh.Cost_model.rows;
       ])
    @
    if approx sp.Memo.est.Cost_model.total_cost fresh.Cost_model.total_cost
    then []
    else
      [
        d rule08 path "stored cost %g disagrees with recomputation %g"
          sp.Memo.est.Cost_model.total_cost fresh.Cost_model.total_cost;
      ]
  in
  let pipeline_check =
    if sp.Memo.pipelined = Plan.pipelined sp.Memo.plan then []
    else
      [
        d rule03 path "stored pipelining bit is %b but the plan is %s"
          sp.Memo.pipelined
          (if Plan.pipelined sp.Memo.plan then "pipelined" else "blocking");
      ]
  in
  mask_check @ order_check @ est_check @ pipeline_check

let memo_rule env memo =
  let n = List.length env.Cost_model.query.Logical.relations in
  let full_mask = (1 lsl n) - 1 in
  let keys = Memo.entry_keys memo in
  let has_entry mask = Memo.plans memo mask <> [] in
  List.concat_map
    (fun key ->
      let key_check =
        if key > 0 && key <= full_mask then []
        else
          [
            d rule08
              (Printf.sprintf "memo:entry %#x" key)
              "entry key %#x outside the valid mask range (0, %#x]" key
              full_mask;
          ]
      in
      let plans = Memo.plans memo key in
      key_check
      @ List.concat_map
          (fun sp ->
            let dangling =
              (* unwrap unary operators to the structural join, whose child
                 subtrees must come from existing MEMO entries *)
              let rec spine = function
                | Plan.Filter { input; _ }
                | Plan.Sort { input; _ }
                | Plan.Top_k { input; _ } ->
                    spine input
                | p -> p
              in
              let child_entry part =
                let mask =
                  Core.Enumerator.relation_mask env (Plan.relations part)
                in
                if has_entry mask then []
                else
                  [
                    d rule08
                      (Printf.sprintf "memo:%s" (Plan.describe sp.Memo.plan))
                      "references group %#x (%s) which has no retained plans"
                      mask
                      (String.concat "," (Plan.relations part));
                  ]
              in
              match spine sp.Memo.plan with
              | Plan.Join { left; right; _ } when key <> 0 ->
                  child_entry left @ child_entry right
              | Plan.Rank_join { inputs; _ } when key <> 0 ->
                  List.concat_map child_entry inputs
              | _ -> []
            in
            subplan_rule env ~key sp @ dangling)
          plans)
    keys

(* ------------------------------------------------------------------ *)
(* PL09-topk *)

let rule09 = "PL09-topk"

let rec count_topk = function
  | Plan.Table_scan _ | Plan.Index_scan _ | Plan.Rank_index_scan _
  | Plan.Remote_scan _ ->
      0
  | Plan.Gather_merge { inputs; _ } ->
      List.fold_left (fun acc i -> acc + count_topk i) 0 inputs
  | Plan.Filter { input; _ } | Plan.Sort { input; _ } -> count_topk input
  | Plan.Top_k { input; _ } -> 1 + count_topk input
  | Plan.Join { left; right; _ } -> count_topk left + count_topk right
  | Plan.Rank_join { inputs; _ } | Plan.Any_k { inputs; _ } ->
      List.fold_left (fun acc i -> acc + count_topk i) 0 inputs

let topk_rule (p : Core.Optimizer.planned) =
  let path = "plan:root" in
  let query = p.Core.Optimizer.query in
  let validity = p.Core.Optimizer.k_validity in
  let interval =
    (if validity.Core.Optimizer.k_lo >= 1 then []
     else
       [
         d rule09 path "k-interval lower bound %d is below 1"
           validity.Core.Optimizer.k_lo;
       ])
    @
    match validity.Core.Optimizer.k_hi with
    | Some hi when hi < validity.Core.Optimizer.k_lo ->
        [
          d rule09 path "k-interval is empty: [%d, %d]"
            validity.Core.Optimizer.k_lo hi;
        ]
    | _ -> []
  in
  let est_check =
    let fresh =
      Cost_model.estimate p.Core.Optimizer.env p.Core.Optimizer.plan
    in
    if
      approx p.Core.Optimizer.est.Cost_model.rows fresh.Cost_model.rows
      && approx p.Core.Optimizer.est.Cost_model.total_cost
           fresh.Cost_model.total_cost
    then []
    else
      [
        d rule09 path
          "recorded estimate disagrees with a recomputation for this plan";
      ]
  in
  let shape =
    if Logical.is_ranking query then
      let k = Option.get query.Logical.k in
      let containment =
        (* optimize derives the interval around env.k_min; after an
           off-path rebind the interval is knowingly stale, so only the
           standard path is held to containment *)
        if
          p.Core.Optimizer.env.Cost_model.k_min = k
          && not (Core.Optimizer.k_in_validity p k)
        then
          [
            d rule09 path
              ~hint:"the chosen plan must be valid at the k it was chosen for"
              "query k=%d lies outside the plan's validity interval" k;
          ]
        else []
      in
      containment
      @
      match p.Core.Optimizer.plan with
      | Plan.Top_k { k = plan_k; input } ->
          (if plan_k = k then []
           else
             [
               d rule09 path "root Top-k limit %d differs from the query's k=%d"
                 plan_k k;
             ])
          @ (if count_topk input = 0 then []
             else [ d rule09 path "nested Top-k below the root limit" ])
          @
          let scoring = Logical.scoring_expr query in
          let produced =
            (Walk.derive p.Core.Optimizer.env.Cost_model.catalog input)
              .Walk.produced
          in
          (match (scoring, produced) with
          | Some score, Some o
            when o.Plan.direction = Io.Desc && Expr.equal o.Plan.expr score ->
              []
          | Some score, _ ->
              [
                d rule09 path
                  ~hint:
                    "rank the input with a rank join or an explicit sort \
                     before limiting"
                  "Top-k input does not produce the scoring order %s DESC"
                  (Expr.to_string score);
              ]
          | None, _ -> [])
      | _ ->
          [
            d rule09 path
              "ranking query plan is not rooted at Top-k (%s)"
              (Plan.describe p.Core.Optimizer.plan);
          ]
    else if count_topk p.Core.Optimizer.plan > 0 then
      [ d rule09 path "unranked query plan contains a Top-k operator" ]
    else []
  in
  interval @ est_check @ shape

(* ------------------------------------------------------------------ *)
(* PL10-cache *)

let rule10 = "PL10-cache"

let cache_entry_rule ~key ~epoch (prepared : Sqlfront.Sql.prepared) =
  let path = Printf.sprintf "cache:%s" key in
  let epoch_check =
    if epoch >= 0 then []
    else [ d rule10 path "negative stats epoch %d" epoch ]
  in
  let canonical =
    match Sqlfront.Sql.template_of_sql key with
    | Error e ->
        [ d rule10 path "cache key is not a parsable template: %s" e ]
    | Ok tpl ->
        if String.equal tpl.Sqlfront.Sql.tpl_text key then []
        else
          [
            d rule10 path
              ~hint:
                "keys must be canonical template text or equivalent \
                 spellings will miss the cache"
              "cache key is not canonical (normalizes to %S)"
              tpl.Sqlfront.Sql.tpl_text;
          ]
  in
  let planned = prepared.Sqlfront.Sql.planned in
  let validity = planned.Core.Optimizer.k_validity in
  let interval =
    (if validity.Core.Optimizer.k_lo >= 1 then []
     else
       [
         d rule10 path "k-interval lower bound %d is below 1"
           validity.Core.Optimizer.k_lo;
       ])
    @
    match validity.Core.Optimizer.k_hi with
    | Some hi when hi < validity.Core.Optimizer.k_lo ->
        [
          d rule10 path "k-interval is empty: [%d, %d]"
            validity.Core.Optimizer.k_lo hi;
        ]
    | _ -> []
  in
  let containment =
    match planned.Core.Optimizer.query.Logical.k with
    | Some k when not (Core.Optimizer.k_in_validity planned k) ->
        [
          d rule10 path
            ~hint:
              "a variant must be stored under an interval containing its \
               own bound k, or lookups re-optimize forever"
            "bound k=%d lies outside the variant's validity interval" k;
        ]
    | _ -> []
  in
  epoch_check @ canonical @ interval @ containment

(* ------------------------------------------------------------------ *)
(* PL12-enum *)

let rule12 = "PL12-enum"

(* Structural sanity of an anyK node: the shape bit must describe the key
   bindings' parent pointers (path: parent i-1; star: parent 0). PL01
   covers arity and binding; this covers the join-tree topology claim. *)
let any_k_shape_node (f : Walk.facts) =
  let path = f.Walk.path in
  match f.Walk.plan with
  | Plan.Any_k { keys; shape; _ } ->
      let expected i =
        match shape with `Path -> i - 1 | `Star -> 0
      in
      List.concat
        (List.mapi
           (fun j (p, _, _) ->
             if p = expected (j + 1) then []
             else
               [
                 d rule12 path
                   "anyK %s shape claims parent %d for input %d, keys say %d"
                   (Core.Enumerate.shape_name shape)
                   (expected (j + 1))
                   (j + 1) p;
               ])
           keys)
  | _ -> []

let check_enumerate_bit ~path ~query ~recomputed bit =
  if bit = recomputed then []
  else if bit then
    [
      d rule12 path
        ~hint:
          "a cursor over this statement would resume a non-resumable sink \
           (nested Top-k, or an unjustified scoring order)"
        "Enumerate bit set but the plan is not cursor-resumable";
    ]
  else
    [
      d rule12 path
        ~hint:
          (Printf.sprintf "query %s plans to a resumable Top-k stream"
             (Format.asprintf "%a" Logical.pp query))
        "plan is cursor-resumable but the Enumerate bit is unset";
    ]

let enumerate_rule (p : Core.Optimizer.planned) =
  let path = "plan:root" in
  let query = p.Core.Optimizer.query in
  let plan = p.Core.Optimizer.plan in
  let catalog = p.Core.Optimizer.env.Cost_model.catalog in
  let bit_check =
    check_enumerate_bit ~path ~query
      ~recomputed:(Core.Enumerate.eligible query plan)
      p.Core.Optimizer.enumerable
  in
  (* Independent justification: when the bit is set, the stream under the
     root Top-k must produce the scoring order by the walker's own
     derivation (not Plan.order_of, which the Enumerate recomputation
     already trusts) and must be Top-k-free. *)
  let sink_check =
    if not p.Core.Optimizer.enumerable then []
    else
      match plan with
      | Plan.Top_k { input; _ } ->
          (if count_topk input = 0 then []
             else [ d rule12 path "Enumerate over a nested Top-k" ])
          @
          let produced = (Walk.derive catalog input).Walk.produced in
          (match (Logical.scoring_expr query, produced) with
          | Some score, Some o
            when o.Plan.direction = Io.Desc && Expr.equal o.Plan.expr score ->
              []
          | Some score, _ ->
              [
                d rule12 path
                  "Enumerate sink does not justifiably produce %s DESC"
                  (Expr.to_string score);
              ]
          | None, _ ->
              [ d rule12 path "Enumerate bit set on an unranked statement" ])
      | _ -> [ d rule12 path "Enumerate bit set but the root is not Top-k" ]
  in
  let shape_checks =
    Walk.fold
      (fun acc f -> acc @ any_k_shape_node f)
      []
      (Walk.derive catalog plan)
  in
  bit_check @ sink_check @ shape_checks

(* ------------------------------------------------------------------ *)
(* PL13-rank *)

let rule13 = "PL13-rank"

(* A by-rank window claims two strong properties: it emits descending score
   order, and it emits at most (hi - lo + 1) rows. Both are only justified
   when the window bounds are sane and — for the indexed variant — the named
   index really is an order-statistic B+-tree keyed on the claimed score
   column. The index-less fallback justifies the order by sorting, but its
   score expression must still be numeric over the base table's schema. *)
let rank_node catalog (f : Walk.facts) =
  let path = f.Walk.path in
  match f.Walk.plan with
  | Plan.Rank_index_scan { table; index; score; lo; hi; dense = _ } ->
      let bounds =
        (if lo >= 1 then []
         else
           [
             d rule13 path
               ~hint:"ranks are 1-based: rank 1 is the best score"
               "by-rank window lower bound %d is below 1" lo;
           ])
        @
        if hi >= lo then []
        else [ d rule13 path "by-rank window %d..%d is empty" lo hi ]
      in
      let score_typed =
        match Walk.table_schema catalog table with
        | None -> [] (* unknown table: PL01's finding *)
        | Some s -> (
            match Walk.check_numeric s score with
            | Ok () -> []
            | Error msg -> [ d rule13 path "by-rank score: %s" msg ])
      in
      let justification =
        match index with
        | None -> [] (* fallback sorts internally: order needs no index *)
        | Some nm -> (
            match
              List.find_opt
                (fun ix -> String.equal ix.Storage.Catalog.ix_name nm)
                (Storage.Catalog.indexes_on catalog table)
            with
            | None ->
                [
                  d rule13 path
                    ~hint:
                      "the counted descent needs an order-statistic index; \
                       without one the plan must use the sort fallback"
                    "by-rank scan names unknown index %s on %s" nm table;
                ]
            | Some ix ->
                if Expr.equal ix.Storage.Catalog.ix_key score then []
                else
                  [
                    d rule13 path
                      ~hint:
                        "ranks computed over a different key do not justify \
                         this plan's claimed score order"
                      "by-rank scan claims score %s but index %s is keyed on \
                       %s"
                      (Expr.to_string score) nm
                      (Expr.to_string ix.Storage.Catalog.ix_key);
                  ])
      in
      bounds @ score_typed @ justification
  | _ -> []

let rank_rule catalog facts =
  Walk.fold (fun acc f -> acc @ rank_node catalog f) [] facts

(* ------------------------------------------------------------------ *)
(* PL14-shard *)

let rule14 = "PL14-shard"

(* Scatter/gather soundness. A gather-merge claims a globally best-first
   stream cut at k; that claim rests on three properties of its inputs:
   every input is a remote shard stream (anything local would not be
   deduplicated by partitioning), every shard was pushed a bound k' >= k
   (under hash partitioning any single shard can hold all k winners, so a
   smaller k' can cut a winner), and every shard stream is sorted by the
   same score the merge compares on (the threshold-style early cutoff
   reads a shard's last streamed score as an upper bound for the rest of
   that stream). Shards must also be pairwise distinct — merging one
   shard twice duplicates rows. *)
let shard_node (f : Walk.facts) =
  let path = f.Walk.path in
  match f.Walk.plan with
  | Plan.Remote_scan { shard; endpoint; sql; k_bound; _ } ->
      (if shard >= 0 then []
       else [ d rule14 path "remote scan has negative shard index %d" shard ])
      @ (if String.trim endpoint <> "" then []
         else [ d rule14 path "remote scan has an empty endpoint" ])
      @ (if String.trim sql <> "" then []
         else [ d rule14 path "remote scan has an empty pushed subquery" ])
      @ (match k_bound with
        | Some k' when k' < 1 ->
            [ d rule14 path "remote scan per-shard bound k'=%d is below 1" k' ]
        | _ -> [])
  | Plan.Gather_merge { inputs; score; k } ->
      let empty =
        if inputs <> [] then []
        else [ d rule14 path "gather-merge has no shard inputs" ]
      in
      let shape =
        List.concat_map
          (fun input ->
            match input with
            | Plan.Remote_scan _ -> []
            | p ->
                [
                  d rule14 path
                    ~hint:
                      "partitioning only deduplicates rows across remote \
                       shard streams"
                    "gather-merge input is not a remote scan: %s"
                    (Plan.describe p);
                ])
          inputs
      in
      let shards =
        List.filter_map
          (function Plan.Remote_scan { shard; _ } -> Some shard | _ -> None)
          inputs
      in
      let distinct =
        if List.length (List.sort_uniq compare shards) = List.length shards
        then []
        else
          [
            d rule14 path
              ~hint:"merging one shard twice duplicates its rows"
              "gather-merge inputs repeat a shard index";
          ]
      in
      let bounds =
        match k with
        | None -> []
        | Some kv ->
            (if kv >= 1 then []
             else [ d rule14 path "gather-merge cutoff k=%d is below 1" kv ])
            @ List.concat_map
                (function
                  | Plan.Remote_scan { shard; k_bound = None; _ } ->
                      [
                        d rule14 path
                          ~hint:
                            "a bounded gather needs a per-shard bound: \
                             unbounded shard streams defeat Propagate-style \
                             pushdown"
                          "gather-merge cuts at k=%d but shard %d has no k'"
                          kv shard;
                      ]
                  | Plan.Remote_scan { shard; k_bound = Some k'; _ }
                    when k' < kv ->
                      [
                        d rule14 path
                          ~hint:
                            "under hash partitioning one shard can hold all \
                             k winners, so k' < k can cut a winner"
                          "gather-merge needs k=%d rows but shard %d was \
                           bounded at k'=%d"
                          kv shard k';
                      ]
                  | _ -> [])
                inputs
      in
      let order =
        match score with
        | None -> []
        | Some sc ->
            List.concat_map
              (function
                | Plan.Remote_scan { shard; score = Some sc'; _ }
                  when not (Expr.equal sc sc') ->
                    [
                      d rule14 path
                        ~hint:
                          "threshold early termination reads a shard's last \
                           score as an upper bound for that stream, which \
                           only holds if the shard sorts by the merge score"
                        "gather-merge orders by %s but shard %d streams by %s"
                        (Expr.to_string sc) shard (Expr.to_string sc');
                    ]
                | Plan.Remote_scan { shard; score = None; _ } ->
                    [
                      d rule14 path
                        "gather-merge claims a merge order but shard %d \
                         stream is unordered"
                        shard;
                    ]
                | _ -> [])
              inputs
      in
      empty @ shape @ distinct @ bounds @ order
  | _ -> []

let shard_rule facts = Walk.fold (fun acc f -> acc @ shard_node f) [] facts

(* ------------------------------------------------------------------ *)
(* PL15-vector *)

let rule15 = "PL15-vector"

(* Batched/streaming boundary soundness. The executor runs a subplan
   batch-at-a-time exactly when {!Core.Vectorize.spine_ok} holds (scans and
   filter stacks, optionally stacked through hash-join probes) or when the
   root is the fused sort+limit top-k sink. Both regions must be free of
   rank joins: a rank join inside a batched region would see its
   incremental early-out (Theorem 1/2 depth accounting) quantized to batch
   boundaries. The predicates here are the claims; the has-rank-join fact
   is recomputed independently, so a future widening of [spine_ok] that
   swallows a streaming sink is caught the moment any plan exercises it. *)
let check_vector_spine ~path ~spine ~fused ~has_rank_join =
  let bad region =
    d rule15 path
      ~hint:
        "rank joins must stay streaming: batching them would quantize \
         rank-join early-out depths to batch boundaries"
      "%s claims batched execution but contains a rank join" region
  in
  (if spine && has_rank_join then [ bad "vector spine" ] else [])
  @ if fused && has_rank_join then [ bad "fused top-k sink" ] else []

let vector_node (f : Walk.facts) =
  let plan = f.Walk.plan in
  check_vector_spine ~path:f.Walk.path
    ~spine:(Core.Vectorize.spine_ok plan)
    ~fused:(Core.Vectorize.fused_sink plan)
    ~has_rank_join:(Plan.has_rank_join plan)

let check_vector_bit ~path ~recomputed bit =
  if bit = recomputed then []
  else if bit then
    [
      d rule15 path
        ~hint:
          "no vector spine or fused top-k sink exists: the executor would \
           run this plan tuple-at-a-time, so costing it as batched is \
           unsound"
        "Vectorized bit set but no subplan is batch-executable";
    ]
  else
    [
      d rule15 path
        ~hint:
          "the executor will run part of this plan batch-at-a-time; the \
           stored property must say so for EXPLAIN and the plan cache"
        "plan has a batch-executable subplan but the Vectorized bit is unset";
    ]

let vector_rule ?vectorized facts =
  let per_node = Walk.fold (fun acc f -> acc @ vector_node f) [] facts in
  per_node
  @
  (* the memo/cache property bit must match a recomputation over the
     retained plan shape *)
  match vectorized with
  | Some bit ->
      check_vector_bit ~path:facts.Walk.path
        ~recomputed:(Core.Vectorize.vectorized facts.Walk.plan)
        bit
  | None -> []
