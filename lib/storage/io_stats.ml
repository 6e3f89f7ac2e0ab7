(* Counters are Atomic.t so concurrent domains (the query service's worker
   pool) never lose updates; single-domain callers pay one uncontended
   atomic fetch-and-add per charge. The [sink] installation itself is a
   plain mutable field: it is only manipulated by single-domain analysis
   runs (EXPLAIN ANALYZE), never concurrently with server traffic. *)

type t = {
  page_reads : int Atomic.t;
  page_writes : int Atomic.t;
  pool_hits : int Atomic.t;
  index_node_reads : int Atomic.t;
  index_probes : int Atomic.t;
  tuples_read : int Atomic.t;
  (* Secondary counter set that mirrors every charge while installed; the
     executor points this at the per-operator counters of the metrics
     registry so I/O is attributed to the operator that caused it. Charges
     to the sink do not cascade into the sink's own sink. *)
  mutable sink : t option;
}

type snapshot = {
  page_reads : int;
  page_writes : int;
  pool_hits : int;
  index_node_reads : int;
  index_probes : int;
  tuples_read : int;
}

let create () : t =
  {
    page_reads = Atomic.make 0;
    page_writes = Atomic.make 0;
    pool_hits = Atomic.make 0;
    index_node_reads = Atomic.make 0;
    index_probes = Atomic.make 0;
    tuples_read = Atomic.make 0;
    sink = None;
  }

let reset (t : t) =
  Atomic.set t.page_reads 0;
  Atomic.set t.page_writes 0;
  Atomic.set t.pool_hits 0;
  Atomic.set t.index_node_reads 0;
  Atomic.set t.index_probes 0;
  Atomic.set t.tuples_read 0

let sink t = t.sink

let set_sink t s = t.sink <- s

(* Runs around every pull of an operator under EXPLAIN ANALYZE or a trace,
   so it restores the sink without building a [Fun.protect] closure. *)
let with_sink t s f =
  let prev = t.sink in
  t.sink <- Some s;
  match f () with
  | x ->
      t.sink <- prev;
      x
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.sink <- prev;
      Printexc.raise_with_backtrace e bt

let snapshot (t : t) =
  {
    page_reads = Atomic.get t.page_reads;
    page_writes = Atomic.get t.page_writes;
    pool_hits = Atomic.get t.pool_hits;
    index_node_reads = Atomic.get t.index_node_reads;
    index_probes = Atomic.get t.index_probes;
    tuples_read = Atomic.get t.tuples_read;
  }

let diff a b =
  {
    page_reads = a.page_reads - b.page_reads;
    page_writes = a.page_writes - b.page_writes;
    pool_hits = a.pool_hits - b.pool_hits;
    index_node_reads = a.index_node_reads - b.index_node_reads;
    index_probes = a.index_probes - b.index_probes;
    tuples_read = a.tuples_read - b.tuples_read;
  }

let total_io s = s.page_reads + s.page_writes + s.index_node_reads

let mirrored f (t : t) =
  f t;
  match t.sink with None -> () | Some u -> f u

let add n field = Atomic.fetch_and_add field n |> ignore

let add_page_read = mirrored (fun t -> add 1 t.page_reads)

let add_page_write = mirrored (fun t -> add 1 t.page_writes)

let add_pool_hit = mirrored (fun t -> add 1 t.pool_hits)

let add_index_node_read = mirrored (fun t -> add 1 t.index_node_reads)

let add_index_probe = mirrored (fun t -> add 1 t.index_probes)

(* Runs once per tuple a scan or fetch reads: written out so no closure
   over [n] is built per call. *)
let add_tuples_read (t : t) n =
  add n t.tuples_read;
  match t.sink with None -> () | Some u -> add n u.tuples_read

let pp fmt s =
  Format.fprintf fmt
    "reads=%d writes=%d hits=%d idx_nodes=%d probes=%d tuples=%d" s.page_reads
    s.page_writes s.pool_hits s.index_node_reads s.index_probes s.tuples_read
