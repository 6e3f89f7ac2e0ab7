(* Frames of a shard form an intrusive doubly-linked list in recency order
   (head = most recently used, tail = next victim), so a hit reorders and
   a miss evicts in O(1). The previous scheme stamped frames with a clock
   and scanned the whole shard for the minimum on every eviction, which
   made a miss cost O(shard frames) — scans against a full pool slowed
   down as the pool got bigger. *)
type frame = {
  page : Page.t;
  mutable dirty : bool;
  mutable prev : frame option; (* toward the head: more recently used *)
  mutable next : frame option; (* toward the tail: less recently used *)
}

(* Pages are striped across shards by id; each shard owns its slice of
   the backing store, its cache partition, its LRU clock, and its own
   latch. Statements running concurrently on the service's worker domains
   mostly touch distinct pages and therefore distinct shards, so they do
   not serialize on one pool-wide mutex. The pool-wide
   invariants are preserved per shard: a shard never caches more than its
   frame quota, so total residency never exceeds the configured frame
   budget, and every miss/hit/write-back is charged to the shared
   (atomic) [Io_stats.t] exactly as before. *)
type shard = {
  s_frames : int;
  s_disk : (int, Page.t) Hashtbl.t;
  s_cache : (int, frame) Hashtbl.t;
  mutable s_head : frame option;
  mutable s_tail : frame option;
  s_lock : Rkutil.Latch.t;
}

type t = {
  frames : int;  (* configured total, reported by [frames] *)
  io : Io_stats.t;
  shards : shard array;
  next_id : int Atomic.t;
}

let shard_count frames = min 16 (max 1 (frames / 4))

let create ?(frames = 64) io =
  let frames = max 1 frames in
  let n = shard_count frames in
  {
    frames;
    io;
    shards =
      Array.init n (fun _ ->
          {
            s_frames = max 1 (frames / n);
            s_disk = Hashtbl.create 64;
            s_cache = Hashtbl.create 16;
            s_head = None;
            s_tail = None;
            s_lock =
              Rkutil.Latch.create ~name:"storage.bufpool.shard" ~rank:70 ();
          });
    next_id = Atomic.make 0;
  }

let frames t = t.frames

let stats t = t.io

let shard_of t pid = t.shards.(pid mod Array.length t.shards)

(* Exception-safe: [Latch.protect] releases on any unwind, so a deadline
   interrupt raised inside a critical section cannot leak the shard latch
   (the LK06 hazard). The [guarded] marker lets the sanitizer verify every
   cache/LRU access really runs under this shard's latch. *)
let locked s f =
  Rkutil.Latch.protect s.s_lock (fun () ->
      Rkutil.Latch.guarded s.s_lock "bufpool.shard.state";
      f ())

(* Recency-list surgery; all callers hold the shard latch. *)
let unlink s fr =
  (match fr.prev with Some p -> p.next <- fr.next | None -> s.s_head <- fr.next);
  (match fr.next with Some n -> n.prev <- fr.prev | None -> s.s_tail <- fr.prev);
  fr.prev <- None;
  fr.next <- None

let push_front s fr =
  fr.prev <- None;
  fr.next <- s.s_head;
  (match s.s_head with
  | Some h -> h.prev <- Some fr
  | None -> s.s_tail <- Some fr);
  s.s_head <- Some fr

let touch s fr =
  match s.s_head with
  | Some h when h == fr -> ()
  | _ ->
      unlink s fr;
      push_front s fr

let rec evict_if_needed t s =
  if Hashtbl.length s.s_cache >= s.s_frames then
    match s.s_tail with
    | None -> ()
    | Some fr ->
        (* The tail is the least recently used frame of this shard. *)
        if fr.dirty then Io_stats.add_page_write t.io;
        Hashtbl.remove s.s_cache (Page.id fr.page);
        unlink s fr;
        evict_if_needed t s

let insert_frame t s page ~dirty =
  evict_if_needed t s;
  (match Hashtbl.find_opt s.s_cache (Page.id page) with
  | Some old -> unlink s old
  | None -> ());
  let fr = { page; dirty; prev = None; next = None } in
  Hashtbl.replace s.s_cache (Page.id page) fr;
  push_front s fr

let alloc_page t ~capacity =
  let id = Atomic.fetch_and_add t.next_id 1 in
  let s = shard_of t id in
  locked s (fun () ->
      let page = Page.create ~id ~capacity in
      Hashtbl.replace s.s_disk id page;
      insert_frame t s page ~dirty:true;
      page)

let get t pid =
  let s = shard_of t pid in
  locked s (fun () ->
      match Hashtbl.find_opt s.s_cache pid with
      | Some fr ->
          touch s fr;
          Io_stats.add_pool_hit t.io;
          fr.page
      | None -> (
          match Hashtbl.find_opt s.s_disk pid with
          | None ->
              invalid_arg (Printf.sprintf "Buffer_pool.get: unknown page %d" pid)
          | Some page ->
              (* Simulated page-fault I/O: legitimately happens under this
                 shard's own latch (hence [~self]), but under no other
                 Short-class latch. *)
              Rkutil.Latch.blocking_self s.s_lock "bufpool.page_fault";
              Io_stats.add_page_read t.io;
              insert_frame t s page ~dirty:false;
              page))

let mark_dirty t pid =
  let s = shard_of t pid in
  locked s (fun () ->
      match Hashtbl.find_opt s.s_cache pid with
      | Some fr -> fr.dirty <- true
      | None -> (
          (* The page was evicted between the caller's fetch and this call. A
             silent no-op here loses the pending write-back: fault the page in
             (charging the read, as any miss does) and dirty the fresh frame so
             eviction/flush still counts the write. *)
          match Hashtbl.find_opt s.s_disk pid with
          | None ->
              invalid_arg
                (Printf.sprintf "Buffer_pool.mark_dirty: unknown page %d" pid)
          | Some page ->
              Rkutil.Latch.blocking_self s.s_lock "bufpool.page_fault";
              Io_stats.add_page_read t.io;
              insert_frame t s page ~dirty:true))

let flush t =
  Array.iter
    (fun s ->
      locked s (fun () ->
          Hashtbl.iter
            (fun _ fr ->
              if fr.dirty then begin
                Io_stats.add_page_write t.io;
                fr.dirty <- false
              end)
            s.s_cache))
    t.shards

let resident t =
  Array.fold_left
    (fun acc s -> acc + locked s (fun () -> Hashtbl.length s.s_cache))
    0 t.shards
