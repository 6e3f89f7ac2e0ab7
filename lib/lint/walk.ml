open Relalg
module Plan = Core.Plan
module Logical = Core.Logical
module Io = Core.Interesting_orders

type facts = {
  plan : Plan.t;
  path : string;
  schema : Schema.t option;
  produced : Plan.order option;
  streaming : bool;
  children : facts list;
}

(* ------------------------------------------------------------------ *)
(* Schema derivation. Unlike [Plan.schema_of] this never raises: an
   unknown table (or an ill-formed self-join concat) yields [None] and the
   schema rule reports the root cause instead of the walker crashing. *)

let table_schema catalog table =
  Option.map
    (fun ti -> ti.Storage.Catalog.tb_schema)
    (Storage.Catalog.find_table catalog table)

let concat_opt a b =
  match (a, b) with
  | Some a, Some b -> ( try Some (Schema.concat a b) with Invalid_argument _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Order justification. [produced] is the strongest order a node's own
   semantics can guarantee given what its inputs justify; it deliberately
   does NOT call [Plan.order_of] — the claim and the justification must come
   from two implementations for the comparison to mean anything.

   Per-operator reasoning:
   - index scan emits B+-tree key order (validated against the catalog's
     key expression when the index exists);
   - hash join builds right and streams left, INL probes per left tuple,
     plain NL re-runs the inner per left tuple: all three group output by
     left tuple, hence preserve any left order;
   - sort-merge emits ascending left join key, but only when both inputs
     really arrive sorted on their join keys;
   - HRJN/NRJN/HRJN* emit descending combined score, but only when every
     scored input arrives in descending order of its own score expression
     (Expr.equal compares linear forms up to positive scale, so a child
     order of [x] justifies a requirement of [0.5*x]). *)

let order_is child want_dir want_expr =
  match child with
  | Some { Plan.expr; direction } -> direction = want_dir && Expr.equal expr want_expr
  | None -> false

let produced_order plan child_orders =
  let child i = List.nth_opt child_orders i |> Option.join in
  match plan with
  | Plan.Table_scan _ -> None
  | Plan.Index_scan { key; desc; _ } ->
      (* a B+-tree scan emits its key order; whether the named index really
         has this key expression is PL01's finding, not re-derived here *)
      Some { Plan.expr = key; direction = (if desc then Io.Desc else Io.Asc) }
  | Plan.Rank_index_scan { score; _ } ->
      (* a by-rank window emits descending score whichever way it is
         produced: the counted descent walks the score index backwards, the
         fallback sorts internally. Whether the named order-statistic index
         really exists on this score column is PL13's finding. *)
      Some { Plan.expr = score; direction = Io.Desc }
  | Plan.Remote_scan { score; _ } ->
      (* a ranked shard stream claims descending score; whether the pushed
         subquery really orders by it is PL14's finding *)
      Option.map (fun e -> { Plan.expr = e; direction = Io.Desc }) score
  | Plan.Gather_merge { score; inputs; _ } ->
      (* the merge emits descending score only when every shard stream
         arrives already sorted on the same expression *)
      (match score with
      | Some e
        when List.length inputs > 0
             && List.mapi (fun i _ -> order_is (child i) Io.Desc e) inputs
                |> List.for_all Fun.id ->
          Some { Plan.expr = e; direction = Io.Desc }
      | _ -> None)
  | Plan.Filter _ | Plan.Top_k _ -> child 0
  | Plan.Sort { order; _ } -> Some order
  | Plan.Join { algo = Plan.Nested_loops | Plan.Index_nl | Plan.Hash; _ } ->
      child 0
  | Plan.Join { algo = Plan.Sort_merge; cond; _ } ->
      let lkey = Expr.col ~relation:cond.Logical.left_table cond.Logical.left_column
      and rkey =
        Expr.col ~relation:cond.Logical.right_table cond.Logical.right_column
      in
      if order_is (child 0) Io.Asc lkey && order_is (child 1) Io.Asc rkey then
        Some { Plan.expr = lkey; direction = Io.Asc }
      else None
  | Plan.Join { algo = Plan.Nrjn; left_score; right_score; _ } ->
      (* NRJN only needs sorted access on the outer: the inner is scanned
         per probe, so the threshold works with an unsorted right input *)
      (match left_score with
      | Some l when order_is (child 0) Io.Desc l ->
          Option.map
            (fun e -> { Plan.expr = e; direction = Io.Desc })
            (Plan.combined_score left_score right_score)
      | _ -> None)
  | Plan.Rank_join { scores; inputs; _ } ->
      (* HRJN pulls every input in descending score order and thresholds;
         arity mismatches are PL01's finding, here each scored input must
         arrive already sorted descending on its own score *)
      let all_sorted =
        List.length scores = List.length inputs
        && List.mapi (fun i s -> order_is (child i) Io.Desc s) scores
           |> List.for_all Fun.id
      in
      if all_sorted && scores <> [] then
        Some
          {
            Plan.expr =
              List.fold_left
                (fun acc e -> Expr.Add (acc, e))
                (List.hd scores) (List.tl scores);
            direction = Io.Desc;
          }
      else None
  | Plan.Any_k { scores; inputs; _ } ->
      (* anyK materializes and indexes its inputs itself, so — unlike the
         rank joins — its descending total-score order needs no input
         order justification, only a sane score list *)
      if scores <> [] && List.length scores = List.length inputs then
        Some
          {
            Plan.expr =
              List.fold_left
                (fun acc e -> Expr.Add (acc, e))
                (List.hd scores) (List.tl scores);
            direction = Io.Desc;
          }
      else None

(* ------------------------------------------------------------------ *)
(* Streaming recomputation: does the node deliver first rows without a
   blocking operator on its producing spine? Each operator drives specific
   inputs before emitting anything: NL/INL/Hash joins drive the left
   (the right is a per-tuple probe or a build side excluded from the
   "time-to-first-row-per-driving-row" property this codebase tracks),
   sort-merge pulls both sides incrementally, NRJN materialises the
   right, HRJN pulls all of its inputs incrementally. *)

let streaming_of plan child_streams =
  let child i = match List.nth_opt child_streams i with Some b -> b | None -> false in
  match plan with
  | Plan.Table_scan _ | Plan.Index_scan _ -> true
  (* indexed windows stream off the leaf chain after one descent; the
     index-less fallback sorts the whole table first *)
  | Plan.Rank_index_scan { index; _ } -> index <> None
  (* a shard stream yields as the shard produces; the threshold merge
     emits as soon as a candidate is proven globally best *)
  | Plan.Remote_scan _ -> true
  | Plan.Gather_merge { inputs; _ } ->
      List.mapi (fun i _ -> child i) inputs |> List.for_all Fun.id
  | Plan.Filter _ | Plan.Top_k _ -> child 0
  | Plan.Sort _ -> false
  | Plan.Join { algo = Plan.Nested_loops | Plan.Index_nl | Plan.Hash; _ } ->
      child 0
  | Plan.Join { algo = Plan.Sort_merge; _ } -> child 0 && child 1
  | Plan.Join { algo = Plan.Nrjn; _ } -> child 0
  | Plan.Rank_join { inputs; _ } ->
      List.mapi (fun i _ -> child i) inputs |> List.for_all Fun.id
  (* the build phase drains every input before the first answer *)
  | Plan.Any_k _ -> false

(* ------------------------------------------------------------------ *)

let children_of = function
  | Plan.Table_scan _ | Plan.Index_scan _ | Plan.Rank_index_scan _
  | Plan.Remote_scan _ ->
      []
  | Plan.Gather_merge { inputs; _ } ->
      List.mapi (fun i p -> (p, Printf.sprintf "shard%d" i)) inputs
  | Plan.Filter { input; _ } | Plan.Sort { input; _ } | Plan.Top_k { input; _ } ->
      [ (input, "input") ]
  | Plan.Join { left; right; _ } -> [ (left, "left"); (right, "right") ]
  | Plan.Rank_join { inputs; _ } | Plan.Any_k { inputs; _ } ->
      List.mapi (fun i p -> (p, Printf.sprintf "in%d" i)) inputs

let derive catalog plan =
  let rec go path plan =
    let children =
      List.map (fun (c, seg) -> go (path ^ "/" ^ seg) c) (children_of plan)
    in
    let schema =
      match plan with
      | Plan.Table_scan { table }
      | Plan.Index_scan { table; _ }
      | Plan.Rank_index_scan { table; _ } ->
          table_schema catalog table
      | Plan.Remote_scan { tables; _ } -> (
          (* shards stream SELECT * rows permuted into canonical
             (relation, name) column order — same derivation, None-safe *)
          let base =
            List.fold_left
              (fun acc t -> concat_opt acc (table_schema catalog t))
              (Some (Schema.of_columns []))
              tables
          in
          match base with
          | Some s when tables <> [] ->
              Some
                (Schema.of_columns
                   (List.stable_sort
                      (fun a b ->
                        match compare a.Schema.relation b.Schema.relation with
                        | 0 -> compare a.Schema.name b.Schema.name
                        | c -> c)
                      (Schema.columns s)))
          | _ -> None)
      | Plan.Gather_merge _ -> (
          match children with c :: _ -> c.schema | [] -> None)
      | Plan.Filter _ | Plan.Sort _ | Plan.Top_k _ ->
          (match children with [ c ] -> c.schema | _ -> None)
      | Plan.Join _ -> (
          match children with
          | [ l; r ] -> concat_opt l.schema r.schema
          | _ -> None)
      | Plan.Rank_join _ | Plan.Any_k _ -> (
          match children with
          | [] -> None
          | first :: rest ->
              List.fold_left (fun acc c -> concat_opt acc c.schema) first.schema
                rest)
    in
    let produced =
      produced_order plan (List.map (fun c -> c.produced) children)
    in
    let streaming = streaming_of plan (List.map (fun c -> c.streaming) children) in
    { plan; path; schema; produced; streaming; children }
  in
  go "root" plan

let rec iter f facts =
  f facts;
  List.iter (iter f) facts.children

let rec fold f acc facts =
  let acc = f acc facts in
  List.fold_left (fold f) acc facts.children

(* ------------------------------------------------------------------ *)
(* Static expression typing, mirroring Expr's dynamic semantics:
   - arithmetic coerces Int/Float/Bool via to_float but RAISES on strings;
   - comparisons are total but cross-family ones compare by constructor,
     which is never what a query means;
   - And/Or/Not silently collapse non-booleans to false. *)

type family = Fnum | Fstring | Fbool | Fany

let family_name = function
  | Fnum -> "numeric"
  | Fstring -> "string"
  | Fbool -> "bool"
  | Fany -> "null"

let of_dtype = function
  | Value.Tint | Value.Tfloat -> Fnum
  | Value.Tstring -> Fstring
  | Value.Tbool -> Fbool

let ( let* ) = Result.bind

let rec type_of schema expr =
  let numeric2 what a b =
    let* fa = type_of schema a in
    let* fb = type_of schema b in
    match (fa, fb) with
    | (Fstring, _ | _, Fstring) ->
        Error
          (Printf.sprintf "string operand in %s over %s" what
             (Expr.to_string expr))
    | _ -> Ok Fnum
  in
  let boolean what sub =
    let* f = type_of schema sub in
    match f with
    | Fbool | Fany -> Ok Fbool
    | f ->
        Error
          (Printf.sprintf "%s operand of %s is %s, not bool" what
             (Expr.to_string expr) (family_name f))
  in
  match expr with
  | Expr.Const v -> (
      match Value.dtype_of v with None -> Ok Fany | Some d -> Ok (of_dtype d))
  | Expr.Col r -> (
      match
        try Schema.index_of schema ?relation:r.relation r.name
        with Invalid_argument _ -> None
      with
      | None ->
          let q = match r.relation with None -> r.name | Some t -> t ^ "." ^ r.name in
          Error (Printf.sprintf "unbound column %s" q)
      | Some i -> Ok (of_dtype (Schema.nth schema i).Schema.dtype))
  | Expr.Neg e -> (
      let* f = type_of schema e in
      match f with
      | Fstring ->
          Error (Printf.sprintf "string operand in negation %s" (Expr.to_string expr))
      | _ -> Ok Fnum)
  | Expr.Add (a, b) -> numeric2 "addition" a b
  | Expr.Sub (a, b) -> numeric2 "subtraction" a b
  | Expr.Mul (a, b) -> numeric2 "multiplication" a b
  | Expr.Div (a, b) -> numeric2 "division" a b
  | Expr.Cmp (_, a, b) -> (
      let* fa = type_of schema a in
      let* fb = type_of schema b in
      match (fa, fb) with
      | Fany, _ | _, Fany -> Ok Fbool
      | fa, fb when fa = fb -> Ok Fbool
      | Fnum, Fnum -> Ok Fbool
      | fa, fb ->
          Error
            (Printf.sprintf "comparison of %s with %s in %s" (family_name fa)
               (family_name fb) (Expr.to_string expr)))
  | Expr.And (a, b) ->
      let* _ = boolean "left" a in
      boolean "right" b
  | Expr.Or (a, b) ->
      let* _ = boolean "left" a in
      boolean "right" b
  | Expr.Not e -> boolean "inner" e

let check_predicate schema expr =
  let* f = type_of schema expr in
  match f with
  | Fbool | Fany -> Ok ()
  | f ->
      Error
        (Printf.sprintf "predicate %s has type %s, not bool"
           (Expr.to_string expr) (family_name f))

let check_numeric schema expr =
  let* f = type_of schema expr in
  match f with
  | Fnum | Fany -> Ok ()
  | f ->
      Error
        (Printf.sprintf "expression %s has type %s, not numeric"
           (Expr.to_string expr) (family_name f))
