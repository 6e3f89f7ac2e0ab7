module Cost_model = Core.Cost_model

let errors ds = List.filter Diag.is_error ds

let structural ?query ?vectorized catalog plan =
  let facts = Walk.derive catalog plan in
  Rules.schema_rule catalog facts
  @ Rules.order_rule facts
  @ Rules.pipeline_rule facts
  @ Rules.vector_rule ?vectorized facts
  @ Rules.rank_rule catalog facts
  @ Rules.shard_rule facts
  @ match query with None -> [] | Some q -> Rules.filter_rule ~query:q facts

let estimate_rules env plan =
  Rules.cost_rule env plan
  @ Rules.depth_rule env plan
  @
  (* propagation only means something for ranked plans: Figure 8 pushes the
     query's k down through rank joins *)
  if Core.Plan.has_rank_join plan then
    Rules.propagation_rule env ~k:env.Cost_model.k_min plan
  else []

let lint_plan ?query ?env catalog plan =
  Diag.sort
    (structural ?query catalog plan
    @ match env with None -> [] | Some env -> estimate_rules env plan)

let lint_subplan env ?key (sp : Core.Memo.subplan) =
  let catalog = env.Cost_model.catalog in
  Diag.sort
    (structural ~query:env.Cost_model.query ~vectorized:sp.Core.Memo.vectorized
       catalog sp.Core.Memo.plan
    @ Rules.subplan_rule env ?key sp)

let lint_memo env memo =
  let catalog = env.Cost_model.catalog in
  Diag.sort
    (Rules.memo_rule env memo
    @ List.concat_map
        (fun key ->
          List.concat_map
            (fun (sp : Core.Memo.subplan) ->
              structural ~query:env.Cost_model.query catalog sp.Core.Memo.plan)
            (Core.Memo.plans memo key))
        (Core.Memo.entry_keys memo))

let lint_planned (p : Core.Optimizer.planned) =
  let env = p.Core.Optimizer.env in
  Diag.sort
    (structural ~query:p.Core.Optimizer.query env.Cost_model.catalog
       p.Core.Optimizer.plan
    @ estimate_rules env p.Core.Optimizer.plan
    @ Rules.topk_rule p
    @ Rules.enumerate_rule p)

let lint_prepared ~key ~epoch (prepared : Sqlfront.Sql.prepared) =
  Diag.sort
    (Rules.cache_entry_rule ~key ~epoch prepared
    @ lint_planned prepared.Sqlfront.Sql.planned)

let check catalog plan =
  match errors (lint_plan catalog plan) with
  | [] -> Ok ()
  | diag :: _ -> Error (Diag.to_string diag)

module Emit = struct
  exception Lint_error of Diag.t

  let enabled = ref false
  let fail_fast = ref false
  let count = ref 0
  let acc : Diag.t list ref = ref []

  let record ds =
    incr count;
    match errors ds with
    | [] -> ()
    | errs ->
        acc := List.rev_append errs !acc;
        if !fail_fast then raise (Lint_error (List.hd errs))

  let on_retain env ~key sp = if !enabled then record (lint_subplan env ~key sp)
  let on_planned p = if !enabled then record (lint_planned p)

  let install =
    lazy
      (Core.Enumerator.retain_hook := on_retain;
       Core.Optimizer.planned_hook := on_planned)

  let enable ?(fail = false) () =
    Lazy.force install;
    fail_fast := fail;
    enabled := true

  let disable () = enabled := false
  let linted () = !count
  let diagnostics () = List.rev !acc

  let reset () =
    count := 0;
    acc := []
end
