open Relalg

(* Morsel-driven exchange (Leis et al., SIGMOD 2014), adapted to the
   Volcano pull executor.

   A [source] describes a parallelizable subplan as [n_morsels]
   independent units of work; [run_morsel i] produces morsel [i]'s full
   output. Workers ("pumps") claim morsel indices from a shared cursor —
   work-stealing degenerates to claim-stealing because every worker
   steals from the same queue — and deposit each result into a slot
   array. The gather drains slots in morsel-index order, which makes the
   output sequence a pure function of the plan and the data: scheduling,
   degree, and timing cannot reorder it. Determinism costs only a bounded
   reorder window ([window] morsels may be in flight past the consumer's
   cursor); the window doubles as the bounded buffer that lets a
   sequential rank join pull from a parallel subplan with early-out — a
   consumer that stops (close, or a Top-k that saw enough) cancels
   in-flight morsels at their next cancellation check.

   Deadlock discipline: the consumer never waits on pool *scheduling*.
   If the slot it needs is unclaimed it claims and runs morsels itself
   (the "helping" consumer), so a pool saturated with other queries —
   including the query that owns this consumer — only reduces
   parallelism, never progress. The consumer blocks only on morsels a
   pump is actively running, and those always terminate. *)

type prepared = {
  n_morsels : int;
  run_morsel : int -> Tuple.t list;
      (** Must be safe to call from any domain, for distinct morsels
          concurrently; morsel outputs must not depend on which domain
          runs them. *)
}

type source = {
  src_schema : Schema.t;
  src_prepare : cancel:(unit -> bool) -> prepared;
      (** Build shared read-only state (hash tables, materialized inner
          sides) and the morsel closures. [cancel] flips to [true] when
          the consumer stops early; morsel pipelines should then truncate
          — their output is discarded. *)
}

(* ------------------------------------------------------------------ *)
(* Generic ordered gather over morsel payloads.                        *)

type 'a gather = {
  g_n : int;
  g_run : int -> 'a;
  g_weight : 'a -> int;
  g_slots : 'a option array;
  mutable g_next_claim : int;
  mutable g_consumed : int;
  mutable g_filled : int;  (* slots holding a result not yet consumed *)
  g_window : int;
  g_cancelled : bool Atomic.t;
  mutable g_failure : exn option;
  mutable g_live_pumps : int;
  g_lock : Rkutil.Latch.t;
  g_slot_ready : Condition.t;  (* slot filled, pump exited, or cancel *)
  g_window_open : Condition.t;  (* consumer advanced, or cancel *)
  g_stats : Exec_stats.t;  (* inputs 0..dop-1 = pumps, dop = consumer *)
  g_dop : int;
}

let cancelled g = Atomic.get g.g_cancelled

(* Under g_lock. *)
let record g ~worker payload =
  Exec_stats.add_depth g.g_stats worker (g.g_weight payload)

(* Under g_lock. *)
let fill g ~worker i payload =
  g.g_slots.(i) <- Some payload;
  g.g_filled <- g.g_filled + 1;
  Exec_stats.note_buffer g.g_stats g.g_filled;
  record g ~worker payload;
  Condition.broadcast g.g_slot_ready

(* Under g_lock. *)
let fail g e =
  if g.g_failure = None then g.g_failure <- Some e;
  Atomic.set g.g_cancelled true;
  Condition.broadcast g.g_slot_ready;
  Condition.broadcast g.g_window_open

let rec pump g w =
  Rkutil.Latch.lock g.g_lock;
  let rec claim () =
    if cancelled g || g.g_next_claim >= g.g_n then None
    else if g.g_next_claim >= g.g_consumed + g.g_window then begin
      Rkutil.Latch.wait g.g_window_open g.g_lock;
      claim ()
    end
    else begin
      let i = g.g_next_claim in
      g.g_next_claim <- i + 1;
      Some i
    end
  in
  match claim () with
  | None ->
      g.g_live_pumps <- g.g_live_pumps - 1;
      Condition.broadcast g.g_slot_ready;
      Rkutil.Latch.unlock g.g_lock
  | Some i ->
      Rkutil.Latch.unlock g.g_lock;
      (match g.g_run i with
      | payload ->
          Rkutil.Latch.protect g.g_lock (fun () -> fill g ~worker:w i payload)
      | exception e -> Rkutil.Latch.protect g.g_lock (fun () -> fail g e));
      pump g w

let start ?pool ~dop ~window ~stats ~weight ~n ~run ~cancel_flag () =
  let g =
    {
      g_n = n;
      g_run = run;
      g_weight = weight;
      g_slots = Array.make (max 1 n) None;
      g_next_claim = 0;
      g_consumed = 0;
      g_filled = 0;
      g_window = max 1 window;
      g_cancelled = cancel_flag;
      g_failure = None;
      g_live_pumps = 0;
      g_lock = Rkutil.Latch.create ~name:"exec.exchange.gather" ~rank:65 ();
      g_slot_ready = Condition.create ();
      g_window_open = Condition.create ();
      g_stats = stats;
      g_dop = max 1 dop;
    }
  in
  (match pool with
  | None -> ()
  | Some pool ->
      for w = 0 to min dop (Rkutil.Task_pool.size pool) - 1 do
        (* live_pumps is incremented when the pump actually starts: a job
           still queued behind a saturated pool must not be waited on (it
           may be queued behind the very consumer that would wait). *)
        ignore
          (Rkutil.Task_pool.submit pool (fun () ->
               let live =
                 Rkutil.Latch.protect g.g_lock (fun () ->
                     if cancelled g then false
                     else begin
                       g.g_live_pumps <- g.g_live_pumps + 1;
                       true
                     end)
               in
               if live then pump g w))
      done);
  g

(* Next morsel payload in morsel-index order; the consumer helps run
   unclaimed morsels rather than wait on pool scheduling. *)
let rec take g =
  Rkutil.Latch.lock g.g_lock;
  let rec loop () =
    match g.g_failure with
    | Some e ->
        Rkutil.Latch.unlock g.g_lock;
        raise e
    | None ->
        if g.g_consumed >= g.g_n then begin
          Rkutil.Latch.unlock g.g_lock;
          None
        end
        else begin
          match g.g_slots.(g.g_consumed) with
          | Some payload ->
              g.g_slots.(g.g_consumed) <- None;
              g.g_filled <- g.g_filled - 1;
              g.g_consumed <- g.g_consumed + 1;
              Condition.broadcast g.g_window_open;
              Rkutil.Latch.unlock g.g_lock;
              Some payload
          | None ->
              if cancelled g then begin
                Rkutil.Latch.unlock g.g_lock;
                None
              end
              else if
                g.g_next_claim < g.g_n
                && g.g_next_claim < g.g_consumed + g.g_window
              then begin
                let i = g.g_next_claim in
                g.g_next_claim <- i + 1;
                Rkutil.Latch.unlock g.g_lock;
                (match g.g_run i with
                | payload ->
                    Rkutil.Latch.protect g.g_lock (fun () ->
                        fill g ~worker:g.g_dop i payload)
                | exception e ->
                    Rkutil.Latch.protect g.g_lock (fun () -> fail g e));
                take g
              end
              else begin
                (* the slot we need was claimed by a pump that is running
                   it right now — it will fill the slot or report failure *)
                Rkutil.Latch.wait g.g_slot_ready g.g_lock;
                loop ()
              end
        end
  in
  loop ()

(* Cancel and join the running pumps. Queued-but-unstarted pump jobs are
   not waited for: when the pool eventually runs them they observe the
   cancel flag and exit without registering. Idempotent. *)
let stop g =
  Atomic.set g.g_cancelled true;
  Rkutil.Latch.lock g.g_lock;
  Condition.broadcast g.g_window_open;
  Condition.broadcast g.g_slot_ready;
  while g.g_live_pumps > 0 do
    Rkutil.Latch.wait g.g_slot_ready g.g_lock
  done;
  Rkutil.Latch.unlock g.g_lock

(* ------------------------------------------------------------------ *)
(* The streaming exchange: parallel producers, ordered gather.         *)

let default_window dop = max 2 (2 * dop)

let gather ?pool ?stats ~dop (src : source) : Operator.t =
  let dop = max 1 dop in
  let stats =
    match stats with Some s -> s | None -> Exec_stats.create (dop + 1)
  in
  let state = ref None in
  let buffer = ref [] in
  let close () =
    (match !state with Some g -> stop g | None -> ());
    state := None;
    buffer := []
  in
  {
    Operator.schema = src.src_schema;
    open_ =
      (fun () ->
        close ();
        Exec_stats.reset stats;
        let cancel_flag = Atomic.make false in
        let p = src.src_prepare ~cancel:(fun () -> Atomic.get cancel_flag) in
        state :=
          Some
            (start ?pool ~dop ~window:(default_window dop) ~stats
               ~weight:List.length ~n:p.n_morsels ~run:p.run_morsel
               ~cancel_flag ()));
    next =
      (fun () ->
        let rec next () =
          match !buffer with
          | tu :: rest ->
              buffer := rest;
              Exec_stats.bump_emitted stats;
              Some tu
          | [] -> (
              match !state with
              | None -> None
              | Some g -> (
                  match take g with
                  | Some payload ->
                      buffer := payload;
                      next ()
                  | None -> None
                  | exception e ->
                      close ();
                      raise e))
        in
        next ());
    close;
  }

(* ------------------------------------------------------------------ *)
(* Parallel top-N: per-morsel local top-k, merged at the gather.       *)

(* Comparator identical to [Sort.by_expr ~desc:true] so the parallel
   operator reproduces the serial Top_k(Sort(..)) order exactly (NaN
   scores sort last under a descending Float.compare). *)
let desc_by_score (_, a) (_, b) = Float.compare b a

let local_top ~k ~score tuples =
  let scored = List.map (fun tu -> (tu, score tu)) tuples in
  let sorted = List.stable_sort desc_by_score scored in
  List.filteri (fun i _ -> i < k) sorted

(* Stable merge of per-morsel top-k lists concatenated in morsel order:
   equal to the first k of a stable descending sort of the whole input,
   i.e. to the serial plan, independent of degree and scheduling. *)
let top_n ?pool ?stats ~dop ~k ~score (src : source) : Operator.t =
  let dop = max 1 dop in
  let stats =
    match stats with Some s -> s | None -> Exec_stats.create (dop + 1)
  in
  let remaining = ref [] in
  let state = ref None in
  let close () =
    (match !state with Some g -> stop g | None -> ());
    state := None;
    remaining := []
  in
  {
    Operator.schema = src.src_schema;
    open_ =
      (fun () ->
        close ();
        Exec_stats.reset stats;
        let cancel_flag = Atomic.make false in
        let p = src.src_prepare ~cancel:(fun () -> Atomic.get cancel_flag) in
        let g =
          start ?pool ~dop
            ~window:(max 1 p.n_morsels) (* no early-out below a full sort *)
            ~stats ~weight:List.length ~n:p.n_morsels
            ~run:(fun i -> local_top ~k ~score (p.run_morsel i))
            ~cancel_flag ()
        in
        state := Some g;
        let parts = ref [] in
        let rec drain () =
          match take g with
          | Some part ->
              parts := part :: !parts;
              drain ()
          | None -> ()
        in
        (match drain () with
        | () -> ()
        | exception e ->
            close ();
            raise e);
        let merged =
          List.stable_sort desc_by_score (List.concat (List.rev !parts))
        in
        remaining := List.filteri (fun i _ -> i < k) merged);
    next =
      (fun () ->
        match !remaining with
        | (tu, _) :: rest ->
            remaining := rest;
            Exec_stats.bump_emitted stats;
            Some tu
        | [] -> None);
    close;
  }

(* ------------------------------------------------------------------ *)
(* Partitioned hash build: parallel scan of the build side, parallel    *)
(* per-partition table construction.                                    *)

let partitioned_build ?pool ~dop ~partitions ~key ~n ~run ~cancel () =
  let dop = max 1 dop in
  let partitions = max 1 partitions in
  let part v = Value.hash v mod partitions in
  (* Phase 1: parallel morsel scan, each morsel pre-split by partition
     (arrival order preserved within each bucket). *)
  let split tuples =
    let buckets = Array.make partitions [] in
    List.iter
      (fun tu ->
        let j = part (key tu) in
        buckets.(j) <- tu :: buckets.(j))
      tuples;
    Array.map List.rev buckets
  in
  let stats = Exec_stats.create (dop + 1) in
  let g =
    start ?pool ~dop ~window:(max 1 n) ~stats
      ~weight:(fun bs -> Array.fold_left (fun a b -> a + List.length b) 0 bs)
      ~n
      ~run:(fun i -> split (run i))
      ~cancel_flag:cancel ()
  in
  let morsels = Array.make (max 1 n) [||] in
  let rec drain i =
    match take g with
    | Some buckets ->
        morsels.(i) <- buckets;
        drain (i + 1)
    | None -> ()
    | exception e ->
        stop g;
        raise e
  in
  drain 0;
  stop g;
  (* Phase 2: one task per partition builds its hash table by walking
     morsels in index order — chain order is scheduling-independent and
     identical to the serial build over the same input sequence. *)
  let tables = Array.init partitions (fun _ -> Join_key.Tbl.create 64) in
  let build j =
    let tbl = tables.(j) in
    Array.iter
      (fun buckets ->
        if Array.length buckets > 0 then
          List.iter
            (fun tu ->
              let k = key tu in
              Join_key.Tbl.cons tbl k tu)
            buckets.(j))
      morsels;
    (* probe order must match the serial build, which conses and reverses *)
    Join_key.Tbl.map_inplace List.rev tbl
  in
  let next_part = Atomic.make 0 in
  let done_count = Atomic.make 0 in
  let first_exn = Atomic.make None in
  let worker () =
    let rec loop () =
      let j = Atomic.fetch_and_add next_part 1 in
      if j < partitions then begin
        (match build j with
        | () -> ()
        | exception e ->
            ignore (Atomic.compare_and_set first_exn None (Some e)));
        ignore (Atomic.fetch_and_add done_count 1);
        loop ()
      end
    in
    loop ()
  in
  let helpers = ref 0 in
  (match pool with
  | None -> ()
  | Some pool ->
      for _ = 2 to min dop (Rkutil.Task_pool.size pool) do
        if Rkutil.Task_pool.submit pool worker then incr helpers
      done);
  worker ();
  (* Barrier: partition tasks are pure CPU and always terminate; helpers
     that never got scheduled before we finish simply find no partition
     left to claim. *)
  while Atomic.get done_count < partitions do
    Domain.cpu_relax ()
  done;
  (match Atomic.get first_exn with Some e -> raise e | None -> ());
  fun v ->
    match Join_key.Tbl.find_opt tables.(part v) v with Some tus -> tus | None -> []
