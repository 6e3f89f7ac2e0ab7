(* EXPLAIN ANALYZE rendering: the executed profile tree (from
   [Executor.run ~metrics]) annotated, node by node, with what the optimizer
   predicted — estimated input depths from the depth model next to observed
   depths, and estimated I/O cost next to the pages actually touched. *)

type io_totals = { reads : int; writes : int; hits : int }

let self_io (node : Exec.Metrics.node) =
  let s = Storage.Io_stats.snapshot node.Exec.Metrics.io in
  {
    reads = s.Storage.Io_stats.page_reads;
    writes = s.Storage.Io_stats.page_writes;
    hits = s.Storage.Io_stats.pool_hits;
  }

(* Cost_model estimates are cumulative over the subtree, so the comparable
   observed figure is the subtree sum of per-node attributions. *)
let rec subtree_io (p : Executor.profile) =
  List.fold_left
    (fun acc child ->
      let c = subtree_io child in
      { reads = acc.reads + c.reads; writes = acc.writes + c.writes;
        hits = acc.hits + c.hits })
    (self_io p.Executor.p_node)
    p.Executor.p_children

(* The annotation subtree matching a profile subtree: both mirror the plan,
   so structural (positional) descent is exact. *)
let child_ann ann i =
  match ann with
  | None -> None
  | Some a -> List.nth_opt a.Propagate.children i

let pp_depths fmt (observed : int array) (predicted : float array option) =
  let pred i =
    match predicted with
    | Some d when i < Array.length d -> Printf.sprintf " (predicted %.1f)" d.(i)
    | _ -> ""
  in
  let cells =
    Array.to_list
      (Array.mapi (fun i obs -> Printf.sprintf "in%d=%d%s" i obs (pred i))
         observed)
  in
  Format.fprintf fmt "depths: %s" (String.concat ", " cells)

let render ?env ?propagation (profile : Executor.profile) =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  let rec go indent ann (p : Executor.profile) =
    let pad = String.make indent ' ' in
    let node = p.Executor.p_node in
    let stats = node.Exec.Metrics.stats in
    Format.fprintf fmt "%s%s  (rows=%d" pad node.Exec.Metrics.label
      (Exec.Exec_stats.emitted stats);
    if Exec.Exec_stats.buffer_max stats > 0 then
      Format.fprintf fmt ", buffer=%d" (Exec.Exec_stats.buffer_max stats);
    Format.fprintf fmt ")@.";
    if Exec.Exec_stats.inputs stats > 0 then begin
      let predicted =
        match ann with
        | Some { Propagate.depths = Some d; _ } -> Some d
        | _ -> None
      in
      Format.fprintf fmt "%s  %a@." pad
        (fun fmt () -> pp_depths fmt (Exec.Exec_stats.depths stats) predicted)
        ()
    end;
    let cum = subtree_io p in
    let est =
      match env with
      | None -> None
      | Some env ->
          let e = Cost_model.estimate env p.Executor.p_plan in
          let cost =
            match ann with
            | Some a -> e.Cost_model.cost_at a.Propagate.required
            | None -> e.Cost_model.total_cost
          in
          Some cost
    in
    (match est with
    | Some cost ->
        Format.fprintf fmt
          "%s  io: estimated %.1f units, actual %d pages (reads=%d writes=%d \
           pool_hits=%d)@."
          pad cost (cum.reads + cum.writes) cum.reads cum.writes cum.hits
    | None ->
        Format.fprintf fmt
          "%s  io: actual %d pages (reads=%d writes=%d pool_hits=%d)@." pad
          (cum.reads + cum.writes) cum.reads cum.writes cum.hits);
    List.iteri
      (fun i child -> go (indent + 2) (child_ann ann i) child)
      p.Executor.p_children
  in
  go 0 propagation profile;
  Format.pp_print_flush fmt ();
  Buffer.contents buf
