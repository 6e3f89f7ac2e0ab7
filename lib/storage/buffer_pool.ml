(* Every page on the backing store has one frame record for its lifetime,
   reached from its shard by position (page ids are dense, so page [pid]
   sits at [pid / shard count] of shard [pid mod shard count]): finding a
   page hashes nothing. A frame is cached while it is linked into its
   shard's recency list, an intrusive circular doubly-linked list through
   the shard's sentinel frame (sentinel.next = most recently used,
   sentinel.prev = next victim), so a hit reorders and a miss evicts in
   O(1) and neither allocates. The previous scheme stamped frames with a
   clock and scanned the whole shard for the minimum on every eviction,
   which made a miss cost O(shard frames) — scans against a full pool
   slowed down as the pool got bigger. *)
type frame = {
  page : Page.t;
  mutable cached : bool;
  mutable dirty : bool;
  mutable prev : frame; (* toward the head: more recently used *)
  mutable next : frame; (* toward the tail: less recently used *)
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
  mutable s_pages : frame array;  (* by page id / shard count; else [s_lru] *)
  mutable s_cached : int;
  s_lru : frame;  (* sentinel: its page is never cached *)
  s_lock : Rkutil.Latch.t;
}

type t = {
  frames : int;  (* configured total, reported by [frames] *)
  io : Io_stats.t;
  shards : shard array;
  next_id : int Atomic.t;
}

let shard_count frames = min 16 (max 1 (frames / 4))

let new_frame page =
  let rec fr = { page; cached = false; dirty = false; prev = fr; next = fr } in
  fr

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
            s_pages = [||];
            s_cached = 0;
            s_lru = new_frame (Page.create ~id:(-1) ~capacity:0);
            s_lock =
              Rkutil.Latch.create ~name:"storage.bufpool.shard" ~rank:70 ();
          });
    next_id = Atomic.make 0;
  }

let frames t = t.frames

let stats t = t.io

(* A negative id (never a page) still picks a shard, whose [frame_of]
   rejects it. *)
let shard_of t pid = t.shards.((pid land max_int) mod Array.length t.shards)

(* Exception-safe: [Latch.protect] releases on any unwind, so a deadline
   interrupt raised inside a critical section cannot leak the shard latch
   (the LK06 hazard). The [guarded] marker lets the sanitizer verify every
   cache/LRU access really runs under this shard's latch. *)
let locked s f =
  Rkutil.Latch.protect s.s_lock (fun () ->
      Rkutil.Latch.guarded s.s_lock "bufpool.shard.state";
      f ())

(* The frame of page [pid], or [invalid_arg]; the caller holds the latch. *)
let frame_of t s ~what pid =
  let i = pid / Array.length t.shards in
  if pid < 0 || i >= Array.length s.s_pages || s.s_pages.(i) == s.s_lru then
    invalid_arg (Printf.sprintf "Buffer_pool.%s: unknown page %d" what pid)
  else s.s_pages.(i)

(* Recency-list surgery; all callers hold the shard latch. *)
let unlink fr =
  fr.prev.next <- fr.next;
  fr.next.prev <- fr.prev;
  fr.prev <- fr;
  fr.next <- fr

let push_front s fr =
  let head = s.s_lru.next in
  fr.prev <- s.s_lru;
  fr.next <- head;
  head.prev <- fr;
  s.s_lru.next <- fr

let touch s fr =
  if s.s_lru.next != fr then begin
    unlink fr;
    push_front s fr
  end

let rec evict_if_needed t s =
  let fr = s.s_lru.prev in
  (* The tail is the least recently used frame of this shard. *)
  if s.s_cached >= s.s_frames && fr != s.s_lru then begin
    if fr.dirty then Io_stats.add_page_write t.io;
    fr.dirty <- false;
    fr.cached <- false;
    s.s_cached <- s.s_cached - 1;
    unlink fr;
    evict_if_needed t s
  end

(* Cache an uncached frame as the most recently used. *)
let insert_frame t s fr ~dirty =
  evict_if_needed t s;
  fr.cached <- true;
  fr.dirty <- dirty;
  s.s_cached <- s.s_cached + 1;
  push_front s fr

let alloc_page t ~capacity =
  let id = Atomic.fetch_and_add t.next_id 1 in
  let s = shard_of t id in
  locked s (fun () ->
      let i = id / Array.length t.shards in
      if i >= Array.length s.s_pages then begin
        let grown = Array.make (max 8 (2 * (i + 1))) s.s_lru in
        Array.blit s.s_pages 0 grown 0 (Array.length s.s_pages);
        s.s_pages <- grown
      end;
      let page = Page.create ~id ~capacity in
      let fr = new_frame page in
      s.s_pages.(i) <- fr;
      insert_frame t s fr ~dirty:true;
      page)

(* The shard's part of [get]; the caller holds the latch. A hit
   allocates nothing. *)
let get_locked t s pid =
  Rkutil.Latch.guarded s.s_lock "bufpool.shard.state";
  let fr = frame_of t s ~what:"get" pid in
  if fr.cached then begin
    touch s fr;
    Io_stats.add_pool_hit t.io
  end
  else begin
    (* Simulated page-fault I/O: legitimately happens under this shard's
       own latch (hence [~self]), but under no other Short-class latch. *)
    Rkutil.Latch.blocking_self s.s_lock "bufpool.page_fault";
    Io_stats.add_page_read t.io;
    insert_frame t s fr ~dirty:false
  end;
  fr.page

(* Runs once per tuple an unclustered fetch reads, so it takes the latch
   directly rather than through a closure; it releases on any unwind, as
   [locked] does. *)
let get t pid =
  let s = shard_of t pid in
  Rkutil.Latch.lock s.s_lock;
  match get_locked t s pid with
  | page ->
      Rkutil.Latch.unlock s.s_lock;
      page
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Rkutil.Latch.unlock s.s_lock;
      Printexc.raise_with_backtrace e bt

let mark_dirty t pid =
  let s = shard_of t pid in
  locked s (fun () ->
      let fr = frame_of t s ~what:"mark_dirty" pid in
      if fr.cached then fr.dirty <- true
      else begin
        (* The page was evicted between the caller's fetch and this call. A
           silent no-op here loses the pending write-back: fault the page in
           (charging the read, as any miss does) and dirty the fresh frame so
           eviction/flush still counts the write. *)
        Rkutil.Latch.blocking_self s.s_lock "bufpool.page_fault";
        Io_stats.add_page_read t.io;
        insert_frame t s fr ~dirty:true
      end)

let flush t =
  Array.iter
    (fun s ->
      locked s (fun () ->
          let fr = ref s.s_lru.next in
          while !fr != s.s_lru do
            if !fr.dirty then begin
              Io_stats.add_page_write t.io;
              !fr.dirty <- false
            end;
            fr := !fr.next
          done))
    t.shards

let resident t =
  Array.fold_left (fun acc s -> acc + locked s (fun () -> s.s_cached)) 0 t.shards
