(* Ranked-enumeration eligibility: which logical queries admit an anyK
   plan, and which physical plans can back a cursor.

   A plan is *resumable* when the stream under its Top-k sink produces the
   query's exact scoring order and keeps producing when pulled past k:
   rank joins, anyK and a final Sort qualify; a nested Top-k does not (it
   truncates the stream). *)

open Relalg

type shape = [ `Path | `Star ]

let shape_name = function `Path -> "path" | `Star -> "star"

(* Classify the join graph of [query] as a path or star tree. [None] for
   anything else: cycles, multi-edges between a pair, or higher shapes. *)
let shape_of (query : Logical.t) : shape option =
  let names = Logical.relation_names query in
  let n = List.length names in
  if n < 2 then None
  else if List.length query.Logical.joins <> n - 1 then None
  else begin
    (* Count neighbors per relation, refusing duplicate edges. *)
    let deg = Hashtbl.create 8 in
    let edges = Hashtbl.create 8 in
    let ok = ref true in
    List.iter
      (fun (j : Logical.join_pred) ->
        let a = j.Logical.left_table and b = j.Logical.right_table in
        let key = if a < b then (a, b) else (b, a) in
        if a = b || Hashtbl.mem edges key then ok := false
        else begin
          Hashtbl.add edges key ();
          Hashtbl.replace deg a (1 + Option.value ~default:0 (Hashtbl.find_opt deg a));
          Hashtbl.replace deg b (1 + Option.value ~default:0 (Hashtbl.find_opt deg b))
        end)
      query.Logical.joins;
    if not !ok then None
    else
      let degrees =
        List.map (fun t -> Option.value ~default:0 (Hashtbl.find_opt deg t)) names
      in
      (* n-1 distinct edges over a connected graph: already a tree. *)
      if List.for_all (fun d -> d >= 1 && d <= 2) degrees then Some `Path
      else if
        List.length (List.filter (fun d -> d = n - 1) degrees) = 1
        && List.length (List.filter (fun d -> d = 1) degrees) = n - 1
      then Some `Star
      else None
  end

(* Join-tree DFS table order for a recognized shape: a path is walked from
   its first endpoint (in FROM order), a star is center-first. The parent
   of table [i >= 1] is table [i-1] on a path and table [0] on a star. *)
let table_order (query : Logical.t) (shape : shape) =
  let names = Logical.relation_names query in
  let degree t =
    List.length
      (List.filter
         (fun (j : Logical.join_pred) ->
           j.Logical.left_table = t || j.Logical.right_table = t)
         query.Logical.joins)
  in
  match shape with
  | `Star ->
      let n = List.length names in
      let center = List.find (fun t -> degree t = n - 1) names in
      center :: List.filter (fun t -> t <> center) names
  | `Path ->
      let start = List.find (fun t -> degree t = 1) names in
      let rec walk acc t =
        let next =
          List.find_map
            (fun (j : Logical.join_pred) ->
              if j.Logical.left_table = t && not (List.mem j.Logical.right_table acc)
              then Some j.Logical.right_table
              else if
                j.Logical.right_table = t && not (List.mem j.Logical.left_table acc)
              then Some j.Logical.left_table
              else None)
            query.Logical.joins
        in
        match next with None -> List.rev acc | Some u -> walk (u :: acc) u
      in
      walk [ start ] start

(* The anyK plan for an eligible query: one access plan per relation
   (filtered scan), the per-relation weighted scores, and one key binding
   per join-tree edge. [None] when the query has no recognized shape or
   some relation is unranked (a zero-weight input would force constant
   score terms into the enumeration order). *)
let any_k_plan (query : Logical.t) : Plan.t option =
  match shape_of query with
  | None -> None
  | Some shape ->
      let all_ranked =
        List.for_all
          (fun (b : Logical.base) ->
            b.Logical.weight > 0.0 && Option.is_some b.Logical.score)
          query.Logical.relations
      in
      if not (Logical.is_ranking query && all_ranked) then None
      else begin
        let tables = table_order query shape in
        let access t =
          let b = Logical.find_relation query t in
          let scan = Plan.Table_scan { table = t } in
          match b.Logical.filter with
          | Some pred -> Plan.Filter { pred; input = scan }
          | None -> scan
        in
        let score t =
          let b = Logical.find_relation query t in
          Expr.weighted_sum
            [ (b.Logical.weight, Option.get b.Logical.score) ]
        in
        let parent_of i = match shape with `Path -> i - 1 | `Star -> 0 in
        let keys =
          List.filteri (fun i _ -> i >= 1) tables
          |> List.mapi (fun j t ->
                 let i = j + 1 in
                 let p = parent_of i in
                 let parent_table = List.nth tables p in
                 match Logical.joins_between query [ parent_table ] [ t ] with
                 | (jp : Logical.join_pred) :: _ ->
                     ( p,
                       Expr.col ~relation:jp.Logical.left_table
                         jp.Logical.left_column,
                       Expr.col ~relation:jp.Logical.right_table
                         jp.Logical.right_column )
                 | [] -> raise Not_found)
        in
        match keys with
        | exception Not_found -> None
        | keys ->
            Some
              (Plan.Any_k
                 {
                   inputs = List.map access tables;
                   scores = List.map score tables;
                   keys;
                   shape;
                 })
      end

let rec has_topk = function
  | Plan.Table_scan _ | Plan.Index_scan _ | Plan.Rank_index_scan _
  | Plan.Remote_scan _ | Plan.Gather_merge _ ->
      false
  | Plan.Top_k _ -> true
  | Plan.Filter { input; _ } | Plan.Sort { input; _ } -> has_topk input
  | Plan.Join { left; right; _ } -> has_topk left || has_topk right
  | Plan.Rank_join { inputs; _ } | Plan.Any_k { inputs; _ } ->
      List.exists has_topk inputs

(* Can [p] (a stream with no Top-k above it) back a cursor? *)
let resumable (query : Logical.t) p =
  (not (has_topk p))
  &&
  match Logical.scoring_expr query with
  | None -> false
  | Some score ->
      Plan.order_satisfies ~have:(Plan.order_of p)
        ~want:(Some { Plan.expr = score; direction = Interesting_orders.Desc })

(* The Enumerate property of a finished statement: a ranked query whose
   root is a Top-k sink over a resumable stream. *)
let eligible (query : Logical.t) plan =
  Logical.is_ranking query
  &&
  match plan with
  | Plan.Top_k { input; _ } -> resumable query input
  | _ -> false
