open Relalg

type rid = { page_id : int; slot : int }

type t = {
  pool : Buffer_pool.t;
  schema : Schema.t;
  tuples_per_page : int;
  (* Page ids in storage order below [n_pages]; the array grows by doubling,
     so a cursor that captured it and [n_pages] keeps a stable view. *)
  mutable pages : int array;
  mutable n_pages : int;
  mutable cardinality : int;
}

let create ?(tuples_per_page = 50) pool schema =
  if tuples_per_page < 1 then invalid_arg "Heap_file.create: tuples_per_page < 1";
  { pool; schema; tuples_per_page; pages = [||]; n_pages = 0; cardinality = 0 }

let schema t = t.schema

let add_page t =
  let np = Buffer_pool.alloc_page t.pool ~capacity:t.tuples_per_page in
  if t.n_pages = Array.length t.pages then begin
    let grown = Array.make (max 8 (2 * t.n_pages)) 0 in
    Array.blit t.pages 0 grown 0 t.n_pages;
    t.pages <- grown
  end;
  t.pages.(t.n_pages) <- Page.id np;
  t.n_pages <- t.n_pages + 1;
  np

let append t tu =
  if Tuple.arity tu <> Schema.arity t.schema then
    invalid_arg "Heap_file.append: tuple arity mismatch";
  let page =
    if t.n_pages = 0 then add_page t
    else
      let p = Buffer_pool.get t.pool t.pages.(t.n_pages - 1) in
      if Page.is_full p then add_page t else p
  in
  let slot = Page.add page tu in
  Buffer_pool.mark_dirty t.pool (Page.id page);
  t.cardinality <- t.cardinality + 1;
  { page_id = Page.id page; slot }

let load t tuples = List.iter (fun tu -> ignore (append t tu)) tuples

let fetch t ~page_id ~slot =
  let page = Buffer_pool.get t.pool page_id in
  Io_stats.add_tuples_read (Buffer_pool.stats t.pool) 1;
  Page.get page slot

let delete t rid =
  let page = Buffer_pool.get t.pool rid.page_id in
  let ok = Page.delete page rid.slot in
  if ok then begin
    Buffer_pool.mark_dirty t.pool rid.page_id;
    t.cardinality <- t.cardinality - 1
  end;
  ok

let replace t rid tu =
  if Tuple.arity tu <> Schema.arity t.schema then
    invalid_arg "Heap_file.replace: tuple arity mismatch";
  let page = Buffer_pool.get t.pool rid.page_id in
  Page.replace page rid.slot tu;
  Buffer_pool.mark_dirty t.pool rid.page_id

let cardinality t = t.cardinality

let n_pages t = t.n_pages

let tuples_per_page t = t.tuples_per_page

let scan_pages t ~lo ~hi =
  let pages = t.pages in
  let hi = min hi t.n_pages in
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
  if idx < 0 || idx >= t.n_pages then [||]
  else begin
    let page = Buffer_pool.get t.pool t.pages.(idx) in
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

let scan t = scan_pages t ~lo:0 ~hi:t.n_pages

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

let fold_with_rids ?(admit = fun _ -> true) f init t =
  let pages = t.pages and n = t.n_pages in
  let acc = ref init and read = ref 0 in
  for ord = 0 to n - 1 do
    if admit ord then begin
      let pid = pages.(ord) in
      let page = Buffer_pool.get t.pool pid in
      for slot = 0 to Page.count page - 1 do
        if Page.is_live page slot then
          acc := f !acc ord { page_id = pid; slot } (Page.get page slot)
      done;
      read := !read + Page.live_count page
    end
  done;
  Io_stats.add_tuples_read (Buffer_pool.stats t.pool) !read;
  !acc
