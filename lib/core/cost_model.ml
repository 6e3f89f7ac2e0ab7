open Relalg

type env = {
  catalog : Storage.Catalog.t;
  query : Logical.t;
  k_min : int;
}

let default_env ?(k_min = 1) catalog query = { catalog; query; k_min = max 1 k_min }

(* I/O-unit cost of processing one tuple. *)
let cpu_factor = 0.002

(* The executor's sort memory and merge fan-in, and its nested-loops left
   block, as the operators default them. *)
let memory_tuples = Exec.Sort.default_memory_tuples

let sort_fan_in = Exec.Sort.default_fan_in

let nl_block_tuples = Exec.Join.default_block_size

(* Per remote shard a gather touches (connection round-trip, shard-side
   prepare), and per row pulled from it (wire encode / decode) on top of
   [cpu_factor]. *)
let remote_startup = 5.0

let remote_row = 0.01

type estimate = {
  rows : float;
  total_cost : float;
  cost_at : float -> float;
  k_dependent : bool;
}

let table_info env name = Storage.Catalog.table env.catalog name

let tuples_per_page env = float_of_int (Storage.Catalog.tuples_per_page env.catalog)

let base_cardinality env name =
  float_of_int (table_info env name).Storage.Catalog.tb_stats.Storage.Catalog.ts_cardinality

let filter_selectivity env pred =
  let default = 1.0 /. 3.0 in
  let column_const op r c =
    match (r : Expr.column_ref).relation with
    | None -> default
    | Some table -> (
        match Storage.Catalog.column_stats env.catalog ~table ~column:r.name with
        | None -> default
        | Some cs -> (
            let x = Value.to_float c in
            let h = cs.Storage.Catalog.cs_histogram in
            match op with
            | Expr.Eq -> Storage.Histogram.selectivity_eq h x
            | Expr.Ne -> 1.0 -. Storage.Histogram.selectivity_eq h x
            | Expr.Lt | Expr.Le -> Storage.Histogram.selectivity_le h x
            | Expr.Gt | Expr.Ge -> 1.0 -. Storage.Histogram.selectivity_le h x))
  in
  let rec go = function
    | Expr.Cmp (op, Expr.Col r, Expr.Const c)
      when not (Value.is_null c) ->
        column_const op r c
    | Expr.Cmp (op, Expr.Const c, Expr.Col r) when not (Value.is_null c) ->
        let flip = function
          | Expr.Lt -> Expr.Gt
          | Expr.Le -> Expr.Ge
          | Expr.Gt -> Expr.Lt
          | Expr.Ge -> Expr.Le
          | (Expr.Eq | Expr.Ne) as o -> o
        in
        column_const (flip op) r c
    | Expr.And (a, b) -> go a *. go b
    | Expr.Or (a, b) ->
        let sa = go a and sb = go b in
        Rkutil.Mathx.clamp ~lo:0.0 ~hi:1.0 (sa +. sb -. (sa *. sb))
    | Expr.Not a -> 1.0 -. go a
    | _ -> default
  in
  Rkutil.Mathx.clamp ~lo:1e-9 ~hi:1.0 (go pred)

let join_selectivity env (j : Logical.join_pred) =
  Storage.Catalog.estimate_join_selectivity env.catalog
    ~left:(j.Logical.left_table, j.Logical.left_column)
    ~right:(j.Logical.right_table, j.Logical.right_column)

(* Number of ranked base relations under a plan (the model's l and r). *)
let ranked_fan env plan =
  let names = Plan.relations plan in
  List.length
    (List.filter
       (fun n ->
         match Logical.find_relation env.query n with
         | b -> b.Logical.weight > 0.0 && Option.is_some b.Logical.score
         | exception Not_found -> false)
       names)

(* Mean score-decrement slab of a side's (weighted, linear) score
   expression, from column statistics: the "x"/"y" of the any-k formulas.
   [None] when the expression is not linear over columns with stats. *)
let side_slab env e ~rows =
  if rows < 2.0 then None
  else
    match Expr.as_linear e with
    | None -> None
    | Some lin -> (
        let range =
          List.fold_left
            (fun acc ((w, r) : float * Expr.column_ref) ->
              match acc, r.Expr.relation with
              | None, _ | _, None -> None
              | Some total, Some table -> (
                  match
                    Storage.Catalog.column_stats env.catalog ~table
                      ~column:r.Expr.name
                  with
                  | Some cs ->
                      Some
                        (total
                        +. Float.abs w
                           *. (cs.Storage.Catalog.cs_max -. cs.Storage.Catalog.cs_min))
                  | None -> None))
            (Some 0.0) lin.Expr.terms
        in
        match range with
        | Some r when r > 0.0 -> Some (r /. (rows -. 1.0))
        | _ -> None)

(* Selectivity of a rank join's equi-join. Every input joins on one key
   value, so the first pair stands for every pair. *)
let rank_join_selectivity env keys =
  match keys with
  | a :: b :: _ ->
      Rkutil.Mathx.clamp ~lo:1e-12 ~hi:1.0
        (Storage.Catalog.estimate_join_selectivity env.catalog ~left:a ~right:b)
  | _ -> 1.0

(* The depths a rank join over [inputs] (estimated [ests], joined with
   selectivity [s]) reads from each input to produce its top k, as a
   function of k: {!Depth_model.threshold_depths}, each depth clamped to
   its input. Two single ranked base relations whose [scores] give
   histogram slabs x_i count 1/x_i tuples per unit of score; every other
   input counts its estimated rows over a unit score range per ranked base
   relation. [scores = []] skips the slabs. *)
let depth_fn env ~inputs ~ests ~scores ~s =
  let rows = List.map (fun e -> Float.max 1.0 e.rows) ests in
  let slabs =
    match inputs, scores, rows with
    | [ left; right ], [ left_score; right_score ], [ l; r ]
      when ranked_fan env left = 1 && ranked_fan env right = 1 -> (
        match side_slab env left_score ~rows:l, side_slab env right_score ~rows:r with
        | Some x, Some y ->
            Some
              [|
                { Depth_model.density = 1.0 /. x; fan = 1; card = l };
                { Depth_model.density = 1.0 /. y; fan = 1; card = r };
              |]
        | _ -> None)
    | _ -> None
  in
  let model =
    match slabs with
    | Some m -> m
    | None ->
        Array.of_list
          (List.map2
             (fun input card ->
               { Depth_model.density = card; fan = max 1 (ranked_fan env input); card })
             inputs rows)
  in
  fun k -> Depth_model.threshold_depths ~k:(Float.max 1.0 k) ~s model

(* NRJN's outer depth, costed and propagated alike: NRJN stops on the same
   count of results within the threshold, and its inner is re-scanned in
   full whatever its score slabs are, so the depths skip the slabs. *)
let nrjn_depths env ~left ~right ~l ~r ~s =
  depth_fn env ~inputs:[ left; right ] ~ests:[ l; r ] ~scores:[] ~s

let frac rows x = if rows <= 0.0 then 1.0 else Rkutil.Mathx.clamp ~lo:0.0 ~hi:1.0 (x /. rows)

(* [node child env plan]: the estimate of [plan]'s root operator, each of
   its inputs estimated by [child input]. *)
let rec node child env plan =
  match plan with
  | Plan.Table_scan { table } ->
      let info = table_info env table in
      let rows = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_cardinality in
      let pages = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_pages in
      let cost_at x =
        let x = Float.min x rows in
        (pages *. frac rows x) +. (cpu_factor *. x)
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = false }
  | Plan.Index_scan { table; index; _ } ->
      let info = table_info env table in
      let rows = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_cardinality in
      let pages = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_pages in
      let leaf_cap = tuples_per_page env in
      let height = Float.max 1.0 (log (Float.max 2.0 rows) /. log leaf_cap) in
      let clustered =
        match
          List.find_opt
            (fun ix -> String.equal ix.Storage.Catalog.ix_name index)
            info.Storage.Catalog.tb_indexes
        with
        | Some ix -> ix.Storage.Catalog.ix_clustered
        | None -> true
      in
      let frames = float_of_int (Storage.Buffer_pool.frames (Storage.Catalog.pool env.catalog)) in
      let cost_at x =
        let x = Float.min x rows in
        if clustered then height +. (x /. leaf_cap) +. (cpu_factor *. x)
        else begin
          (* Unclustered: each entry fetches a heap page at random. With a
             pool that holds the whole table the cost is the distinct pages
             touched (Cardenas); with a smaller pool most fetches miss. *)
          let touched =
            if pages <= 0.0 then 0.0 else pages *. (1.0 -. exp (-.x /. pages))
          in
          let io =
            if frames >= pages then touched
            else Float.max touched (x *. (1.0 -. (frames /. Float.max 1.0 pages)))
          in
          height +. (x /. leaf_cap) +. io +. (cpu_factor *. x)
        end
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = false }
  | Plan.Rank_index_scan { table; index; lo; hi; _ } -> (
      let info = table_info env table in
      let card = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_cardinality in
      let pages = float_of_int info.Storage.Catalog.tb_stats.Storage.Catalog.ts_pages in
      let window = float_of_int (max 0 (hi - lo + 1)) in
      let rows = Float.min window card in
      let leaf_cap = tuples_per_page env in
      match index with
      | Some nm ->
          (* Counted descent: one root-to-leaf walk positions the window,
             then the leaf chain yields window entries — O(log n + window),
             independent of lo. Unclustered leaves add per-entry heap
             fetches (Cardenas, as for Index_scan). *)
          let height = Float.max 1.0 (log (Float.max 2.0 card) /. log leaf_cap) in
          let clustered =
            match
              List.find_opt
                (fun ix -> String.equal ix.Storage.Catalog.ix_name nm)
                info.Storage.Catalog.tb_indexes
            with
            | Some ix -> ix.Storage.Catalog.ix_clustered
            | None -> true
          in
          let frames =
            float_of_int (Storage.Buffer_pool.frames (Storage.Catalog.pool env.catalog))
          in
          let cost_at x =
            let x = Float.min x rows in
            let heap_io =
              if clustered then 0.0
              else begin
                let touched =
                  if pages <= 0.0 then 0.0 else pages *. (1.0 -. exp (-.x /. pages))
                in
                if frames >= pages then touched
                else Float.max touched (x *. (1.0 -. (frames /. Float.max 1.0 pages)))
              end
            in
            height +. (x /. leaf_cap) +. heap_io +. (cpu_factor *. x)
          in
          { rows; total_cost = cost_at rows; cost_at; k_dependent = false }
      | None ->
          (* No order-statistic index: drain the heap, sort by score, slice
             the window. Blocking, so flat in x. *)
          let scan = pages +. (cpu_factor *. card) in
          let sort_cpu =
            cpu_factor *. card *. log (Float.max 2.0 card) /. log 2.0
          in
          let total = scan +. sort_cpu +. (cpu_factor *. rows) in
          { rows; total_cost = total; cost_at = (fun _ -> total); k_dependent = false })
  | Plan.Remote_scan { tables; k_bound; score; _ } ->
      (* One shard's pushed subquery, seen from the coordinator: a startup
         round-trip plus per-row transfer. The shard serves its stream
         incrementally (rank index / HRJN on its side), so the coordinator's
         view is linear in the rows actually pulled — that linearity is what
         the gather's threshold exploits. Shard-local cardinality is the
         coordinator's full-table estimate; k' caps the contribution. *)
      let card =
        List.fold_left (fun acc t -> acc *. base_cardinality env t) 1.0 tables
      in
      let rows =
        match k_bound with
        | Some k -> Float.min (float_of_int k) card
        | None -> card
      in
      let cost_at x =
        let x = Float.min x rows in
        remote_startup +. ((remote_row +. cpu_factor) *. x)
      in
      {
        rows;
        total_cost = cost_at rows;
        cost_at;
        k_dependent = Option.is_some score;
      }
  | Plan.Gather_merge { inputs; k; score } ->
      let ests = List.map child inputs in
      let n = float_of_int (max 1 (List.length inputs)) in
      let sum_rows = List.fold_left (fun acc e -> acc +. e.rows) 0.0 ests in
      let rows =
        match k with
        | Some k -> Float.min (float_of_int k) sum_rows
        | None -> sum_rows
      in
      let cost_at x =
        let x = Float.min x rows in
        (* Threshold merge: with homogeneously distributed scores each shard
           is drained to ~x/N plus one batch of slack before its bound drops
           below the global k-th candidate; skewed shards cost less, so this
           is the flat-prior estimate. The heap hand-off is log N per row. *)
        let per_shard = (x /. n) +. 8.0 in
        List.fold_left
          (fun acc e -> acc +. e.cost_at (Float.min per_shard e.rows))
          (cpu_factor *. x *. (log (Float.max 2.0 n) /. log 2.0))
          ests
      in
      {
        rows;
        total_cost = cost_at rows;
        cost_at;
        k_dependent = Option.is_some score;
      }
  | Plan.Filter { pred; input } ->
      let i = child input in
      let sel = filter_selectivity env pred in
      let rows = i.rows *. sel in
      let cost_at x =
        let x = Float.min x rows in
        let need = if sel <= 0.0 then i.rows else Float.min i.rows (x /. sel) in
        i.cost_at need +. (cpu_factor *. need)
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = i.k_dependent }
  | Plan.Sort { input; _ } ->
      let i = child input in
      let rows = i.rows in
      let pages = rows /. tuples_per_page env in
      let extra_io =
        if rows <= float_of_int memory_tuples then 0.0
        else begin
          let runs = Float.ceil (rows /. float_of_int memory_tuples) in
          let passes =
            Float.ceil (log (Float.max 2.0 runs) /. log (float_of_int sort_fan_in))
          in
          2.0 *. pages *. Float.max 1.0 passes
        end
      in
      let cpu = cpu_factor *. rows *. log (Float.max 2.0 rows) /. log 2.0 in
      let total = i.total_cost +. extra_io +. cpu in
      { rows; total_cost = total; cost_at = (fun _ -> total); k_dependent = false }
  | Plan.Top_k { k; input } ->
      let i = child input in
      let kf = float_of_int k in
      let rows = Float.min kf i.rows in
      let cost_at x = i.cost_at (Float.min x rows) in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = i.k_dependent }
  | Plan.Join { algo; cond; left; right; _ } ->
      estimate_join child env algo cond left right
  | Plan.Rank_join { inputs; scores; keys } -> (
      let ests = List.map child inputs in
      let s = rank_join_selectivity env keys in
      let depths = depth_fn env ~inputs ~ests ~scores ~s in
      let cpu = cpu_factor in
      match ests with
      | [ l; r ] ->
          let rows = l.rows *. r.rows *. s in
          let cost_at x =
            let x = Float.max 1.0 (Float.min x (Float.max 1.0 rows)) in
            let d = depths x in
            l.cost_at d.(0) +. r.cost_at d.(1)
            +. (cpu *. (d.(0) +. d.(1) +. x +. (d.(0) *. d.(1) *. s)))
          in
          { rows; total_cost = cost_at rows; cost_at; k_dependent = true }
      | _ ->
          let m = List.length inputs in
          let rows =
            List.fold_left (fun acc e -> acc *. e.rows) 1.0 ests
            *. (s ** float_of_int (m - 1))
          in
          let cost_at x =
            let x = Float.max 1.0 (Float.min x (Float.max 1.0 rows)) in
            let d = depths x in
            let acc = ref (cpu *. x) in
            List.iteri
              (fun i e -> acc := !acc +. e.cost_at d.(i) +. (cpu *. d.(i)))
              ests;
            !acc
          in
          { rows; total_cost = cost_at rows; cost_at; k_dependent = true })
  | Plan.Any_k { inputs; keys; _ } ->
      let ests = List.map child inputs in
      let m = List.length inputs in
      (* One selectivity per join-tree edge; the acyclic output cardinality
         is the product of input cardinalities and edge selectivities. *)
      let edge_sel (_, pk, ck) =
        match pk, ck with
        | Expr.Col l, Expr.Col r -> (
            match l.Expr.relation, r.Expr.relation with
            | Some lt, Some rt ->
                Rkutil.Mathx.clamp ~lo:1e-12 ~hi:1.0
                  (Storage.Catalog.estimate_join_selectivity env.catalog
                     ~left:(lt, l.Expr.name) ~right:(rt, r.Expr.name))
            | _ -> 1.0 /. 3.0)
        | _ -> 1.0 /. 3.0
      in
      let rows =
        List.fold_left (fun acc e -> acc *. e.rows) 1.0 ests
        *. List.fold_left (fun acc k -> acc *. edge_sel k) 1.0 keys
      in
      let cpu = cpu_factor in
      (* Build: every input materialized in full plus the per-bucket sort
         of the DP tables. Enumeration: a bounded per-result delay (heap
         pop + O(m) candidate expansions), flat in the answer's rank. *)
      let build =
        List.fold_left
          (fun acc e ->
            let n = Float.max 1.0 e.rows in
            acc +. e.total_cost +. (cpu *. n *. (log n /. log 2.0)))
          0.0 ests
      in
      let delay =
        cpu
        *. (float_of_int m
           +. log (Float.max 2.0 rows) /. log 2.0)
      in
      let cost_at x =
        let x = Float.max 1.0 (Float.min x (Float.max 1.0 rows)) in
        build +. (delay *. x)
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = true }

and estimate_join child env algo cond left right =
  let l = child left and r = child right in
  let s = Rkutil.Mathx.clamp ~lo:1e-12 ~hi:1.0 (join_selectivity env cond) in
  let rows = l.rows *. r.rows *. s in
  let cpu = cpu_factor in
  match algo with
  | Plan.Nested_loops ->
      let blocks = Float.max 1.0 (Float.ceil (l.rows /. float_of_int nl_block_tuples)) in
      let total =
        l.total_cost +. (blocks *. r.total_cost) +. (cpu *. l.rows *. r.rows)
      in
      let cost_at x =
        let f = frac rows x in
        r.total_cost +. (f *. (total -. r.total_cost))
      in
      { rows; total_cost = total; cost_at; k_dependent = false }
  | Plan.Index_nl ->
      (* Right side must be a single base relation probed via an index. *)
      let right_distinct =
        match
          Storage.Catalog.column_stats env.catalog ~table:cond.Logical.right_table
            ~column:cond.Logical.right_column
        with
        | Some cs when cs.Storage.Catalog.cs_distinct > 0 ->
            float_of_int cs.Storage.Catalog.cs_distinct
        | _ -> Float.max 1.0 r.rows
      in
      let leaf_cap = tuples_per_page env in
      let height = Float.max 1.0 (log (Float.max 2.0 r.rows) /. log leaf_cap) in
      let matches_per_probe = r.rows /. right_distinct in
      let per_probe = height +. (matches_per_probe /. leaf_cap) in
      let total =
        l.total_cost +. (l.rows *. per_probe) +. (cpu *. (l.rows +. rows))
      in
      let cost_at x =
        let f = frac rows x in
        l.cost_at (f *. l.rows)
        +. (f *. l.rows *. per_probe)
        +. (cpu *. f *. (l.rows +. rows))
      in
      { rows; total_cost = total; cost_at; k_dependent = l.k_dependent }
  | Plan.Hash ->
      (* The executor's hash join spills Grace partitions when the build
         side exceeds memory: both inputs are then written and re-read. *)
      let spill_io =
        if r.rows <= float_of_int memory_tuples then 0.0
        else 2.0 *. ((l.rows +. r.rows) /. tuples_per_page env)
      in
      let total =
        l.total_cost +. r.total_cost +. spill_io
        +. (cpu *. (l.rows +. r.rows +. rows))
      in
      let cost_at x =
        let f = frac rows x in
        r.total_cost +. spill_io
        +. l.cost_at (f *. l.rows)
        +. (cpu *. ((f *. l.rows) +. r.rows +. (f *. rows)))
      in
      { rows; total_cost = total; cost_at; k_dependent = l.k_dependent }
  | Plan.Sort_merge ->
      let total = l.total_cost +. r.total_cost +. (cpu *. (l.rows +. r.rows)) in
      let cost_at x =
        let f = frac rows x in
        l.cost_at (f *. l.rows) +. r.cost_at (f *. r.rows)
        +. (cpu *. f *. (l.rows +. r.rows))
      in
      {
        rows;
        total_cost = total;
        cost_at;
        k_dependent = l.k_dependent || r.k_dependent;
      }
  | Plan.Nrjn ->
      (* Outer depth from the model; the inner input is fully re-scanned
         for every outer tuple. *)
      let depths = nrjn_depths env ~left ~right ~l ~r ~s in
      let cost_at x =
        let x = Float.max 1.0 (Float.min x (Float.max 1.0 rows)) in
        let outer = (depths x).(0) in
        l.cost_at outer
        +. (outer *. r.total_cost)
        +. (cpu *. ((outer *. r.rows) +. x))
      in
      { rows; total_cost = cost_at rows; cost_at; k_dependent = true }

let rec estimate env plan = node (estimate env) env plan

let estimate_with ~child env plan = node child env plan

let rank_join_depths env plan ~k =
  match plan with
  | Plan.Rank_join { inputs; scores; keys } ->
      depth_fn env ~inputs
        ~ests:(List.map (estimate env) inputs)
        ~scores ~s:(rank_join_selectivity env keys) k
  | Plan.Join { algo = Plan.Nrjn; cond; left; right; _ } ->
      nrjn_depths env ~left ~right ~l:(estimate env left)
        ~r:(estimate env right)
        ~s:(Rkutil.Mathx.clamp ~lo:1e-12 ~hi:1.0 (join_selectivity env cond))
        k
  | _ -> invalid_arg "Cost_model.rank_join_depths: not a rank join"

(* The binary model's parameters at one k, for the depth forms reported
   alongside the threshold depths: n is the geometric mean of the base
   cardinalities under the join. *)
let binary_params env ~k ~cond ~left ~right =
  let side p =
    {
      Depth_model.fan = max 1 (ranked_fan env p);
      card = Float.max 1.0 (estimate env p).rows;
    }
  in
  let n =
    let logs =
      List.map
        (fun m -> log (Float.max 1.0 (base_cardinality env m)))
        (Plan.relations left @ Plan.relations right)
    in
    Float.max 1.0
      (exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (max 1 (List.length logs))))
  in
  {
    Depth_model.k = Float.max 1.0 k;
    s = Rkutil.Mathx.clamp ~lo:1e-12 ~hi:1.0 (join_selectivity env cond);
    n;
    left = side left;
    right = side right;
  }

let any_k_depths_for env ~k ~cond ~left ~right =
  let p = binary_params env ~k ~cond ~left ~right in
  (* Use the slab formulation with equal slabs scaled by n/card: for the
     model's uniform-[0,n] convention the slab is n/card per input. *)
  let x = p.Depth_model.n /. p.Depth_model.left.Depth_model.card in
  let y = p.Depth_model.n /. p.Depth_model.right.Depth_model.card in
  let c_l, c_r = Depth_model.any_k_depths ~k:p.Depth_model.k ~s:p.Depth_model.s ~x ~y in
  Depth_model.clamped p { Depth_model.d_left = c_l; d_right = c_r }

let worst_case_depths_for env ~k ~cond ~left ~right =
  let p = binary_params env ~k ~cond ~left ~right in
  Depth_model.clamped p (Depth_model.worst_case_depths p)

let k_star env ~rank_plan ~sort_plan =
  let rank = estimate env rank_plan in
  let sort = estimate env sort_plan in
  let na = Float.max 1.0 rank.rows in
  let f k = rank.cost_at k -. sort.total_cost in
  if f na <= 0.0 then None (* rank plan cheaper everywhere: k* > na *)
  else if f 1.0 >= 0.0 then Some 1.0
  else Some (Rkutil.Mathx.bisect ~f ~lo:1.0 ~hi:na ())
