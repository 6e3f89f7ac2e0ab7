open Relalg

type order = { expr : Expr.t; direction : Interesting_orders.direction }

type join_algo =
  | Nested_loops
  | Index_nl
  | Hash
  | Sort_merge
  | Nrjn

type t =
  | Table_scan of { table : string }
  | Index_scan of { table : string; index : string; key : Expr.t; desc : bool }
  (* By-rank window over a scored base table: the rows ranked [lo..hi]
     (1-based, rank 1 = best score), best first. [index = Some nm] walks the
     order-statistic B+-tree [nm] (O(log n + window)); [index = None] is the
     drain-sort-slice fallback used when no score index exists. [dense]
     switches from competition ranking (tie block shares its minimum rank)
     to dense ranking (distinct scores numbered consecutively, windows keep
     whole tie blocks). *)
  | Rank_index_scan of {
      table : string;
      index : string option;
      score : Expr.t;
      lo : int;
      hi : int;
      dense : bool;
    }
  (* One shard's half of a scatter/gather: the pushed-down subquery [sql]
     executed remotely over [endpoint], streaming rows in canonical column
     order. [k_bound] is the Propagate-style per-shard k' the coordinator
     derived (each hash shard contributes at most the global k). A ranked
     remote scan ([score = Some _]) streams best-first, which is what lets
     the gather's threshold bound terminate it early. *)
  | Remote_scan of {
      shard : int;
      endpoint : string;
      sql : string;
      tables : string list;
      score : Expr.t option;
      k_bound : int option;
    }
  (* Coordinator-side streaming merge of per-shard sorted streams: emits
     globally best-first using the canonical tie comparator, stopping after
     [k] rows (threshold-style: a shard is only pulled while its last
     streamed score could still beat the current global candidate). *)
  | Gather_merge of { inputs : t list; score : Expr.t option; k : int option }
  | Filter of { pred : Expr.t; input : t }
  | Sort of { order : order; input : t }
  | Join of {
      algo : join_algo;
      cond : Logical.join_pred;
      left : t;
      right : t;
      left_score : Expr.t option;
      right_score : Expr.t option;
    }
  | Top_k of { k : int; input : t }
  | Rank_join of {
      inputs : t list;
      scores : Expr.t list;
      keys : (string * string) list;
    }
  | Any_k of {
      inputs : t list;
      scores : Expr.t list;
      keys : (int * Expr.t * Expr.t) list;
      shape : [ `Path | `Star ];
    }

type order_key = { k_direction : Interesting_orders.direction; k_expr : Expr.canonical }

let order_key o = { k_direction = o.direction; k_expr = Expr.canonical o.expr }

let key_equal a b =
  (match a.k_direction, b.k_direction with
  | Interesting_orders.Asc, Interesting_orders.Asc
  | Interesting_orders.Desc, Interesting_orders.Desc ->
      true
  | _ -> false)
  && Expr.canonical_equal a.k_expr b.k_expr

let key_satisfies ~have ~want =
  match want with
  | None -> true
  | Some w -> ( match have with None -> false | Some h -> key_equal h w)

let order_equal a b = key_equal (order_key a) (order_key b)

let order_satisfies ~have ~want =
  match want with
  | None -> true
  | Some w -> ( match have with None -> false | Some h -> order_equal h w)

let combined_score left_score right_score =
  match left_score, right_score with
  | Some l, Some r -> Some (Expr.Add (l, r))
  | Some l, None -> Some l
  | None, Some r -> Some r
  | None, None -> None

(* The score a multi-input rank operator emits: its inputs' scores summed
   left to right. *)
let sum_scores scores =
  List.fold_left (fun acc e -> Expr.Add (acc, e)) (List.hd scores) (List.tl scores)

let rec order_of = function
  | Table_scan _ -> None
  | Index_scan { key; desc; _ } ->
      Some
        {
          expr = key;
          direction = (if desc then Interesting_orders.Desc else Interesting_orders.Asc);
        }
  | Rank_index_scan { score; _ } ->
      Some { expr = score; direction = Interesting_orders.Desc }
  | Remote_scan { score; _ } | Gather_merge { score; _ } ->
      Option.map
        (fun e -> { expr = e; direction = Interesting_orders.Desc })
        score
  | Filter { input; _ } -> order_of input
  | Sort { order; _ } -> Some order
  | Join { algo = Nrjn; left_score; right_score; _ } ->
      Option.map
        (fun e -> { expr = e; direction = Interesting_orders.Desc })
        (combined_score left_score right_score)
  | Join { algo = Sort_merge; cond; _ } ->
      Some
        {
          expr = Expr.col ~relation:cond.Logical.left_table cond.Logical.left_column;
          direction = Interesting_orders.Asc;
        }
  | Join { algo = Hash | Index_nl; left; _ } -> order_of left
  | Join { algo = Nested_loops; _ } -> None
  | Top_k { input; _ } -> order_of input
  | Rank_join { scores; _ } | Any_k { scores; _ } ->
      Some { expr = sum_scores scores; direction = Interesting_orders.Desc }

let rec pipelined = function
  | Table_scan _ | Index_scan _ -> true
  (* the counted descent reaches the first ranked row in O(log n); the
     index-less fallback drains and sorts the table first *)
  | Rank_index_scan { index; _ } -> index <> None
  (* a remote stream yields as the shard produces; the gather emits as soon
     as the threshold bound proves a candidate globally best *)
  | Remote_scan _ -> true
  | Gather_merge { inputs; _ } -> List.for_all pipelined inputs
  | Filter { input; _ } -> pipelined input
  | Sort _ -> false
  | Join { algo = Nested_loops | Index_nl | Hash; left; _ } -> pipelined left
  | Join { algo = Sort_merge; left; right; _ } -> pipelined left && pipelined right
  | Join { algo = Nrjn; left; _ } -> pipelined left
  | Top_k { input; _ } -> pipelined input
  | Rank_join { inputs; _ } -> List.for_all pipelined inputs
  (* anyK materializes and indexes its inputs before the first answer *)
  | Any_k _ -> false

let rec relations = function
  | Table_scan { table } -> [ table ]
  | Index_scan { table; _ } | Rank_index_scan { table; _ } -> [ table ]
  | Remote_scan { tables; _ } -> tables
  (* every shard serves the same relations; report one copy *)
  | Gather_merge { inputs; _ } -> (
      match inputs with first :: _ -> relations first | [] -> [])
  | Filter { input; _ } | Sort { input; _ } | Top_k { input; _ } ->
      relations input
  | Join { left; right; _ } -> relations left @ relations right
  | Rank_join { inputs; _ } | Any_k { inputs; _ } ->
      List.concat_map relations inputs

let rec has_rank_join = function
  | Table_scan _ | Index_scan _ | Rank_index_scan _ | Remote_scan _
  | Gather_merge _ ->
      false
  | Filter { input; _ } | Sort { input; _ } | Top_k { input; _ } ->
      has_rank_join input
  | Join { algo = Nrjn; _ } -> true
  | Join { left; right; _ } -> has_rank_join left || has_rank_join right
  | Rank_join _ | Any_k _ -> true

let rec join_count = function
  (* a remote scan's pushed subquery may itself join; locally it is a leaf *)
  | Table_scan _ | Index_scan _ | Rank_index_scan _ | Remote_scan _
  | Gather_merge _ ->
      0
  | Filter { input; _ } | Sort { input; _ } | Top_k { input; _ } ->
      join_count input
  | Join { left; right; _ } -> 1 + join_count left + join_count right
  | Rank_join { inputs; _ } | Any_k { inputs; _ } ->
      List.length inputs - 1 + List.fold_left (fun acc i -> acc + join_count i) 0 inputs

let canonical_schema schema =
  Schema.columns schema
  |> List.stable_sort (fun a b ->
         match compare a.Schema.relation b.Schema.relation with
         | 0 -> compare a.Schema.name b.Schema.name
         | c -> c)
  |> Schema.of_columns

let rec schema_of catalog = function
  | Table_scan { table } | Index_scan { table; _ } | Rank_index_scan { table; _ }
    ->
      (Storage.Catalog.table catalog table).Storage.Catalog.tb_schema
  (* shards stream SELECT * rows permuted into canonical (relation, name)
     column order so the merge's tie comparator is plan-shape independent *)
  | Remote_scan { tables; _ } -> (
      match tables with
      | first :: rest ->
          List.fold_left
            (fun acc t ->
              Schema.concat acc
                (Storage.Catalog.table catalog t).Storage.Catalog.tb_schema)
            (Storage.Catalog.table catalog first).Storage.Catalog.tb_schema
            rest
          |> canonical_schema
      | [] -> invalid_arg "Plan.schema_of: remote scan over no tables")
  | Gather_merge { inputs; _ } -> (
      match inputs with
      | first :: _ -> schema_of catalog first
      | [] -> invalid_arg "Plan.schema_of: empty gather")
  | Filter { input; _ } | Sort { input; _ } | Top_k { input; _ } ->
      schema_of catalog input
  | Join { left; right; _ } ->
      Schema.concat (schema_of catalog left) (schema_of catalog right)
  | Rank_join { inputs; _ } | Any_k { inputs; _ } -> (
      match inputs with
      | first :: rest ->
          List.fold_left
            (fun acc i -> Schema.concat acc (schema_of catalog i))
            (schema_of catalog first) rest
      | [] -> invalid_arg "Plan.schema_of: join over no inputs")

let algo_name = function
  | Nested_loops -> "NLJ"
  | Index_nl -> "INLJ"
  | Hash -> "HJ"
  | Sort_merge -> "MJ"
  | Nrjn -> "NRJN"

let rec describe = function
  | Table_scan { table } -> table
  | Index_scan { table; desc; _ } -> Printf.sprintf "%s[ix%s]" table (if desc then "↓" else "↑")
  | Rank_index_scan { table; index; lo; hi; dense; _ } ->
      Printf.sprintf "%s[%srank %d..%d%s]" table
        (if dense then "dense " else "")
        lo hi
        (match index with Some _ -> "" | None -> "/sort")
  | Remote_scan { shard; tables; k_bound; _ } ->
      Printf.sprintf "Remote%d(%s%s)" shard
        (String.concat "," tables)
        (match k_bound with Some k -> Printf.sprintf " k'=%d" k | None -> "")
  | Gather_merge { inputs; k; _ } ->
      Printf.sprintf "Gather%s(%s)"
        (match k with Some k -> Printf.sprintf "[k=%d]" k | None -> "")
        (String.concat "," (List.map describe inputs))
  | Filter { input; _ } -> Printf.sprintf "σ(%s)" (describe input)
  | Sort { input; _ } -> Printf.sprintf "Sort(%s)" (describe input)
  | Join { algo; left; right; _ } ->
      Printf.sprintf "%s(%s,%s)" (algo_name algo) (describe left) (describe right)
  | Top_k { k; input } -> Printf.sprintf "Top%d(%s)" k (describe input)
  | Rank_join { inputs; _ } ->
      Printf.sprintf "%s(%s)"
        (if List.length inputs > 2 then "HRJN*" else "HRJN")
        (String.concat "," (List.map describe inputs))
  | Any_k { inputs; shape; _ } ->
      Printf.sprintf "AnyK%s(%s)"
        (match shape with `Path -> "path" | `Star -> "star")
        (String.concat "," (List.map describe inputs))

let dir_name = function Interesting_orders.Asc -> "ASC" | Interesting_orders.Desc -> "DESC"

let pp fmt plan =
  let rec go indent plan =
    let pad = String.make indent ' ' in
    match plan with
    | Table_scan { table } -> Format.fprintf fmt "%sTableScan %s@." pad table
    | Index_scan { table; index; key; desc } ->
        Format.fprintf fmt "%sIndexScan %s using %s on %a %s@." pad table index
          Expr.pp key
          (if desc then "DESC" else "ASC")
    | Rank_index_scan { table; index; score; lo; hi; dense } ->
        Format.fprintf fmt "%sRankIndexScan %s %sranks %d..%d on %a %s@." pad
          table
          (if dense then "dense " else "")
          lo hi Expr.pp score
          (match index with
          | Some nm -> "using " ^ nm
          | None -> "via sort (no rank index)")
    | Remote_scan { shard; endpoint; sql; k_bound; _ } ->
        Format.fprintf fmt "%sRemoteScan shard=%d %s%s  [%s]@." pad shard
          endpoint
          (match k_bound with
          | Some k -> Printf.sprintf " k'=%d" k
          | None -> "")
          sql
    | Gather_merge { inputs; score; k } ->
        Format.fprintf fmt "%sGatherMerge shards=%d%s%t@." pad
          (List.length inputs)
          (match k with Some k -> Printf.sprintf " k=%d" k | None -> "")
          (fun fmt ->
            match score with
            | Some e -> Format.fprintf fmt "  [rank: %a]" Expr.pp e
            | None -> ());
        List.iter (go (indent + 2)) inputs
    | Filter { pred; input } ->
        Format.fprintf fmt "%sFilter %a@." pad Expr.pp pred;
        go (indent + 2) input
    | Sort { order; input } ->
        Format.fprintf fmt "%sSort on %a %s@." pad Expr.pp order.expr
          (dir_name order.direction);
        go (indent + 2) input
    | Join { algo; cond; left; right; left_score; right_score } ->
        Format.fprintf fmt "%s%s on %s.%s = %s.%s" pad (algo_name algo)
          cond.Logical.left_table cond.Logical.left_column
          cond.Logical.right_table cond.Logical.right_column;
        (match combined_score left_score right_score with
        | Some e when algo = Nrjn ->
            Format.fprintf fmt "  [rank: %a]" Expr.pp e
        | _ -> ());
        Format.fprintf fmt "@.";
        go (indent + 2) left;
        go (indent + 2) right
    | Top_k { k; input } ->
        Format.fprintf fmt "%sTopK k=%d@." pad k;
        go (indent + 2) input
    | Rank_join { inputs; scores; keys } ->
        (match keys with
        | [ (lt, lc); (rt, rc) ] ->
            Format.fprintf fmt "%sHRJN on %s.%s = %s.%s" pad lt lc rt rc
        | (_, key) :: _ -> Format.fprintf fmt "%sHRJN* on shared key %s" pad key
        | [] -> Format.fprintf fmt "%sHRJN*" pad);
        Format.fprintf fmt "  [rank: %a]@." Expr.pp (sum_scores scores);
        List.iter (go (indent + 2)) inputs
    | Any_k { inputs; scores; shape; _ } ->
        Format.fprintf fmt "%sAnyK %s enumeration  [rank: %a]@." pad
          (match shape with `Path -> "path" | `Star -> "star")
          Expr.pp (sum_scores scores);
        List.iter (go (indent + 2)) inputs
  in
  go 0 plan
