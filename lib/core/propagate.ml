type annotation = {
  node : Plan.t;
  required : float;
  depths : float array option;
  children : annotation list;
}

let rec annotate env plan required =
  match plan with
  | Plan.Table_scan _ | Plan.Index_scan _ | Plan.Rank_index_scan _
  | Plan.Remote_scan _ ->
      { node = plan; required; depths = None; children = [] }
  | Plan.Gather_merge { inputs; _ } ->
      (* Threshold merge: under a flat score prior each shard owes about an
         equal split of the requirement, plus one batch of slack before its
         bound falls below the global k-th candidate. *)
      let n = float_of_int (max 1 (List.length inputs)) in
      let per_shard = (required /. n) +. 8.0 in
      {
        node = plan;
        required;
        depths = None;
        children = List.map (fun input -> annotate env input per_shard) inputs;
      }
  | Plan.Top_k { k; input } ->
      let r = Float.min required (float_of_int k) in
      { node = plan; required = r; depths = None; children = [ annotate env input r ] }
  | Plan.Filter { pred; input } ->
      let sel = Cost_model.filter_selectivity env pred in
      let need = if sel <= 0.0 then infinity else required /. sel in
      { node = plan; required; depths = None; children = [ annotate env input need ] }
  | Plan.Sort { input; _ } ->
      (* Blocking: the child must produce everything. *)
      let child_est = Cost_model.estimate env input in
      {
        node = plan;
        required;
        depths = None;
        children = [ annotate env input child_est.Cost_model.rows ];
      }
  | Plan.Rank_join { inputs; _ } ->
      let d = Cost_model.rank_join_depths env plan ~k:required in
      {
        node = plan;
        required;
        depths = Some d;
        children = List.mapi (fun i input -> annotate env input d.(i)) inputs;
      }
  | Plan.Join { algo = Plan.Nrjn; left; right; _ } ->
      let d = Cost_model.rank_join_depths env plan ~k:required in
      let right_est = Cost_model.estimate env right in
      {
        node = plan;
        required;
        depths = Some d;
        children =
          [
            annotate env left d.(0);
            (* Inner is re-scanned in full. *)
            annotate env right right_est.Cost_model.rows;
          ];
      }
  | Plan.Join { cond = _; left; right; _ } ->
      let est = Cost_model.estimate env plan in
      let l = Cost_model.estimate env left and r = Cost_model.estimate env right in
      let f =
        if est.Cost_model.rows <= 0.0 then 1.0
        else Float.min 1.0 (required /. est.Cost_model.rows)
      in
      {
        node = plan;
        required;
        depths = None;
        children =
          [
            annotate env left (f *. l.Cost_model.rows);
            annotate env right r.Cost_model.rows;
          ];
      }
  | Plan.Any_k { inputs; _ } ->
      (* The anyK build phase materializes every input in full before the
         first answer; required depth never propagates below it. *)
      {
        node = plan;
        required;
        depths = None;
        children =
          List.map
            (fun input ->
              let est = Cost_model.estimate env input in
              annotate env input est.Cost_model.rows)
            inputs;
      }

let run env ~k plan = annotate env plan (float_of_int (max 1 k))

let rank_join_annotations ann =
  let rec go acc a =
    let acc =
      match a.depths with
      | Some [| d_left; d_right |] ->
          (a.node, a.required, { Depth_model.d_left; d_right }) :: acc
      | _ -> acc
    in
    List.fold_left go acc a.children
  in
  List.rev (go [] ann)

let pp fmt ann =
  let rec go indent a =
    let pad = String.make indent ' ' in
    let head =
      match a.node with
      | Plan.Table_scan { table } -> "TableScan " ^ table
      | Plan.Index_scan { table; _ } -> "IndexScan " ^ table
      | Plan.Rank_index_scan { table; lo; hi; _ } ->
          Printf.sprintf "RankIndexScan %s %d..%d" table lo hi
      | Plan.Filter _ -> "Filter"
      | Plan.Sort _ -> "Sort"
      | Plan.Join { algo; _ } -> Plan.algo_name algo
      | Plan.Top_k { k; _ } -> Printf.sprintf "TopK k=%d" k
      | Plan.Rank_join { inputs = [ _; _ ]; _ } -> "HRJN"
      | Plan.Rank_join { inputs; _ } ->
          Printf.sprintf "HRJN* (%d-way)" (List.length inputs)
      | Plan.Any_k { inputs; _ } ->
          Printf.sprintf "AnyK (%d-way)" (List.length inputs)
      | Plan.Remote_scan { shard; _ } -> Printf.sprintf "RemoteScan shard=%d" shard
      | Plan.Gather_merge { inputs; _ } ->
          Printf.sprintf "GatherMerge (%d shards)" (List.length inputs)
    in
    (match a.depths with
    | Some [| d_left; d_right |] ->
        Format.fprintf fmt "%s%s  k=%.0f  dL=%.0f dR=%.0f@." pad head a.required
          d_left d_right
    | Some ds ->
        Format.fprintf fmt "%s%s  k=%.0f  %s@." pad head a.required
          (String.concat " "
             (List.mapi (Printf.sprintf "d%d=%.0f") (Array.to_list ds)))
    | None -> Format.fprintf fmt "%s%s  k=%.0f@." pad head a.required);
    List.iter (go (indent + 2)) a.children
  in
  go 0 ann
