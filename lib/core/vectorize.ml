(* Which plan shapes the vectorized executor runs on columnar batches, and
   the recompute of the Vectorized plan property.

   The executor batches a *vector spine*: a Table_scan leaf, any stack of
   Filters, and in-memory-probed Hash joins whose LEFT input continues the
   spine and whose right (build) side is a rank-join-free subplan. Index
   scans stay tuple-at-a-time (a B+-tree walk is inherently per-tuple, and
   scored index scans feed early-out consumers that must not over-read), as
   do rank joins, sorts and top-k heaps. Batches flow upward until a
   sink boundary, where an adapter restores the GetNext interface — or into
   the fused vectorized top-k sink when the plan ends in Top_k over Sort
   over a spine.

   [vectorized] mirrors the executor's context threading exactly — planlint
   PL15 checks the memo's stored bit against this recompute, so any change
   here must ship with the matching executor change (and vice versa). *)

let rec spine_ok = function
  | Plan.Table_scan _ -> true
  | Plan.Filter { input; _ } -> spine_ok input
  | Plan.Join { algo = Plan.Hash; left; right; _ } ->
      spine_ok left && not (Plan.has_rank_join right)
  | _ -> false

let fused_sink = function
  | Plan.Top_k { input = Plan.Sort { input = sp; _ }; _ } -> spine_ok sp
  | _ -> false

(* [any bulk p]: does compiling [p] in a bulk (true) or streaming (false)
   context vectorize any operator? Mirrors the executor's child-context
   rules case by case. *)
let rec any bulk p =
  if bulk && spine_ok p then true
  else if fused_sink p then true
  else
    match p with
    | Plan.Table_scan _ | Plan.Index_scan _ | Plan.Rank_index_scan _
    | Plan.Remote_scan _ | Plan.Gather_merge _ ->
        false
    | Plan.Filter { input; _ } -> any bulk input
    | Plan.Sort { input; _ } -> any true input (* sorts drain: always bulk below *)
    | Plan.Top_k { input = Plan.Sort _ as s; _ } -> any bulk s
    | Plan.Top_k { input; _ } ->
        (* Non-sort ranked inputs may stop early: streaming below. *)
        any false input
    | Plan.Join { algo = Plan.Hash; left; right; _ } ->
        (* Both sides of a hash join are fully drained: bulk below. *)
        any true left || any true right
    | Plan.Join { algo = Plan.Nested_loops; left; right; _ } ->
        any bulk left || any true right
    | Plan.Join { algo = Plan.Sort_merge; left; right; _ } ->
        any bulk left || any bulk right
    | Plan.Join { algo = Plan.Index_nl; left; right; _ } ->
        any bulk left || any false right
    | Plan.Join { algo = Plan.Nrjn; left; right; _ } ->
        (* Rank joins stream incrementally from their inputs. *)
        any false left || any false right
    | Plan.Rank_join { inputs; _ } | Plan.Any_k { inputs; _ } ->
        List.exists (any false) inputs

let vectorized p = any true p
