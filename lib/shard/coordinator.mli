(** Rank-aware scatter/gather coordinator for a sharded cluster.

    The coordinator owns a {e mirror} catalog (the full, unpartitioned
    data) plus line-protocol links to N shard servers, each holding one
    {!Partition} slice. A ranked statement that can be answered
    shard-locally — a top-k over co-partitioned tables, or a
    [rank()/dense_rank() BETWEEN] window — is {e scattered}: rewritten to
    a per-shard [SELECT *] subquery with a pushed-down bound
    ([LIMIT k'] with [k' = k] under hash partitioning, window
    [BETWEEN 1 AND hi]), streamed back over [WIRE HEX] (bit-exact rows),
    and merged with the canonical tie comparator, so the gathered answer
    is cell-identical to a single-node execution. Everything else falls
    back to the embedded local {!Server.Service} over the mirror.

    Early termination: scattered top-k statements open shard cursors and
    pull batches of [k/N + 8] rows (the flat-prior per-shard expectation
    the cost model charges); a shard whose scores have fallen out of the
    merge race is simply never fetched from again, so its observed depth
    stays near [k/N] rather than [k']. Per-shard observed depths are
    reported in every scattered {!reply} and in {!analyze}'s
    Gather-remote report.

    Shard I/O is pipelined: each step of a scatter (the open, every
    gather refill, a window query, DML routing) connects every link it
    needs, writes each link's lines — [TIMEOUT] with the remaining
    deadline first — in one flush to every link, and only then reads
    the replies, all of them, before raising the first error. Shard
    statement names are reused: a finished or replaced scatter's names
    return to their link, their CLOSE riding at the head of the link's
    next batch, and the next scatter of the same SQL takes them first —
    so a re-EXECUTE of a gather cursor runs under the same names.

    DML is applied to the mirror first (keeping its statistics and
    epochs authoritative) and then routed: single-row-assignable INSERTs
    to the owning shard only, DELETE/UPDATE broadcast. The scatter-plan
    cache is keyed on (template text, partitioning epoch); [SHARD ADD]
    repartitions and bumps the epoch, invalidating every cached scatter
    plan. *)

type reply = {
  columns : string list;
  rows : Relalg.Tuple.t list;
  scores : float list;
  affected : int option;
  scattered : bool;  (** Answered by scatter/gather, not the mirror. *)
  depths : int array;
      (** Per-shard observed depth (rows pulled) when [scattered]. *)
  latency_s : float;
}

type t
type session

val create :
  ?config:Server.Service.config ->
  mirror:Storage.Catalog.t ->
  part:Partition.t ->
  endpoints:Server.Listener.endpoint list ->
  unit ->
  t
(** The mirror catalog must contain exactly the rows fanned out to the
    shards (see {!Partition.split}); shard links connect lazily. *)

val set_reshard : t -> (t -> string -> (unit, string) result) -> unit
(** Install the [SHARD ADD] implementation (an in-process {!Cluster}
    spawns one more shard and repartitions). Without one, [SHARD ADD]
    fails. *)

val reconfigure :
  t -> part:Partition.t -> endpoints:Server.Listener.endpoint list -> unit
(** Swap the shard set after a repartition: drops every link, bumps the
    partitioning epoch (invalidating cached scatter plans and open
    gather cursors). *)

val shutdown : t -> unit
(** Close shard links and the local service. Does {e not} stop the shard
    servers (their owner — e.g. {!Cluster} — does). *)

val mirror : t -> Storage.Catalog.t
val local : t -> Server.Service.t
val part : t -> Partition.t
val part_epoch : t -> int
val endpoints : t -> Server.Listener.endpoint list

val open_session : t -> session
val close_session : session -> unit

val set_timeout : session -> float option -> unit
(** Session default deadline override — forwarded to the embedded mirror
    session and used as the scatter deadline budget. *)

val session_stats : session -> (string * string) list

val query :
  session -> ?timeout_s:float -> ?k:int -> string -> (reply, Server.Service.error) result
(** One-shot statement: scattered when eligible, otherwise the mirror
    service (SELECT through its plan cache; DML applied to the mirror
    and routed to the shards). *)

val prepare :
  session -> name:string -> string -> (Sqlfront.Sql.template, Server.Service.error) result

val execute_prepared :
  session -> ?timeout_s:float -> ?k:int -> string -> (reply, Server.Service.error) result
(** Scattered top-k executions park a {e gather cursor} under the
    statement name: {!fetch} continues the merged enumeration exactly
    like a single-node cursor, and shard cursors stay open underneath. *)

val fetch :
  session -> ?timeout_s:float -> name:string -> int -> (reply, Server.Service.error) result

val close_cursor : session -> string -> (unit, Server.Service.error) result

val explain : session -> string -> (string, Server.Service.error) result
(** Scattered statements render the distributed plan — a
    [GatherRemote] node over per-shard [RemoteScan] leaves, each with
    its pushed subquery and k' bound; others defer to the mirror. *)

val analyze :
  session -> ?k:int -> string -> (string, Server.Service.error) result
(** EXPLAIN ANALYZE for scattered statements: executes, then annotates
    the Gather-remote node with each shard's observed depth against its
    pushed bound. Falls back to the mirror's plan report otherwise. *)

val rank_probe :
  session ->
  ?dense:bool ->
  table:string ->
  column:string ->
  float ->
  (int option * int, Server.Service.error) result
(** Inline probe of the mirror's order-statistic index (the mirror holds
    all rows, so its answer is the global one). *)

val stats : t -> (string * string) list
(** Mirror-service fields plus [shards], [part_epoch], [cluster_*] sums
    of the shard services' query/error/timeout/shed counters, and
    [cluster_link_*] sums over the coordinator's own shard sessions
    (e.g. [cluster_link_prepared], the shard-side prepared statements
    the coordinator holds). *)

val shard_list : t -> string list
(** One line per shard: id, endpoint, per-table row counts (computed
    from the partition function over the mirror). *)

val shard_add : t -> string -> (unit, string) result
