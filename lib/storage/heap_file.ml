open Relalg

type rid = { page_id : int; slot : int }

type t = {
  pool : Buffer_pool.t;
  schema : Schema.t;
  tuples_per_page : int;
  mutable page_ids : int list;  (* newest first *)
  mutable page_ids_rev : int array option;  (* cache of pages in order *)
  mutable cardinality : int;
}

let create ?(tuples_per_page = 50) pool schema =
  if tuples_per_page < 1 then invalid_arg "Heap_file.create: tuples_per_page < 1";
  {
    pool;
    schema;
    tuples_per_page;
    page_ids = [];
    page_ids_rev = None;
    cardinality = 0;
  }

let schema t = t.schema

let pages_in_order t =
  match t.page_ids_rev with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev t.page_ids) in
      t.page_ids_rev <- Some a;
      a

let append t tu =
  if Tuple.arity tu <> Schema.arity t.schema then
    invalid_arg "Heap_file.append: tuple arity mismatch";
  let page =
    match t.page_ids with
    | pid :: _ ->
        let p = Buffer_pool.get t.pool pid in
        if Page.is_full p then begin
          let np = Buffer_pool.alloc_page t.pool ~capacity:t.tuples_per_page in
          t.page_ids <- Page.id np :: t.page_ids;
          t.page_ids_rev <- None;
          np
        end
        else p
    | [] ->
        let np = Buffer_pool.alloc_page t.pool ~capacity:t.tuples_per_page in
        t.page_ids <- [ Page.id np ];
        t.page_ids_rev <- None;
        np
  in
  let slot = Page.add page tu in
  Buffer_pool.mark_dirty t.pool (Page.id page);
  t.cardinality <- t.cardinality + 1;
  { page_id = Page.id page; slot }

let load t tuples = List.iter (fun tu -> ignore (append t tu)) tuples

let fetch t rid =
  let page = Buffer_pool.get t.pool rid.page_id in
  Io_stats.add_tuples_read (Buffer_pool.stats t.pool) 1;
  Page.get page rid.slot

let delete t rid =
  let page = Buffer_pool.get t.pool rid.page_id in
  let ok = Page.delete page rid.slot in
  if ok then begin
    Buffer_pool.mark_dirty t.pool rid.page_id;
    t.cardinality <- t.cardinality - 1
  end;
  ok

let cardinality t = t.cardinality

let n_pages t = List.length t.page_ids

let tuples_per_page t = t.tuples_per_page

let scan_pages t ~lo ~hi =
  let pages = pages_in_order t in
  let hi = min hi (Array.length pages) in
  let page_idx = ref (max 0 lo) in
  let slot = ref 0 in
  let current = ref None in
  let rec next () =
    match !current with
    | Some p when !slot < Page.count p ->
        if not (Page.is_live p !slot) then begin
          incr slot;
          next ()
        end
        else begin
          let tu = Page.get p !slot in
          incr slot;
          Io_stats.add_tuples_read (Buffer_pool.stats t.pool) 1;
          Some tu
        end
    | _ ->
        if !page_idx >= hi then None
        else begin
          current := Some (Buffer_pool.get t.pool pages.(!page_idx));
          incr page_idx;
          slot := 0;
          next ()
        end
  in
  next

let page_rows t idx =
  let pages = pages_in_order t in
  if idx < 0 || idx >= Array.length pages then [||]
  else begin
    let page = Buffer_pool.get t.pool pages.(idx) in
    let n = Page.count page in
    let acc = ref [] in
    let live = ref 0 in
    for slot = n - 1 downto 0 do
      if Page.is_live page slot then begin
        acc := Page.get page slot :: !acc;
        incr live
      end
    done;
    (* Same total as the tuple-at-a-time cursor, charged once per page. *)
    if !live > 0 then Io_stats.add_tuples_read (Buffer_pool.stats t.pool) !live;
    Array.of_list !acc
  end

let scan t = scan_pages t ~lo:0 ~hi:(Array.length (pages_in_order t))

let iter f t =
  let next = scan t in
  let rec loop () =
    match next () with
    | Some tu ->
        f tu;
        loop ()
    | None -> ()
  in
  loop ()

let to_list t =
  let acc = ref [] in
  iter (fun tu -> acc := tu :: !acc) t;
  List.rev !acc

let fold_with_rids f init t =
  let pages = pages_in_order t in
  let acc = ref init in
  Array.iter
    (fun pid ->
      let page = Buffer_pool.get t.pool pid in
      for slot = 0 to Page.count page - 1 do
        if Page.is_live page slot then
          acc := f !acc { page_id = pid; slot } (Page.get page slot)
      done)
    pages;
  Io_stats.add_tuples_read (Buffer_pool.stats t.pool) t.cardinality;
  !acc
