type cls = Rkutil.Latch.cls = Short | Long

(* The declared lock-order table. Lower ranks are acquired first: every
   real nesting in the engine goes strictly downward through this list.
   [Rkutil.Latch.create] sites must agree with it — LK02's table check
   flags any observed site that is missing or mismatched, so this file is
   the single place a new lock must be declared.

   The two Long-class sites are held across blocking work by design: the
   coordinator lock serializes shard RPC round-trips, and the catalog
   rwlock is held across whole statements (including page-fault I/O). *)
let table =
  [
    ("shard.coordinator", 10, Long);
    ("server.listener", 12, Short);
    ("shard.frontend", 14, Short);
    ("server.catalog.rwlock", 20, Long);
    ("server.session", 30, Short);
    ("server.plan_cache", 40, Short);
    ("server.metrics", 50, Short);
    ("server.ivar", 55, Short);
    ("rkutil.task_pool", 60, Short);
    ("storage.bufpool.shard", 70, Short);
    (* Reserved for the sanitizer's own integration tests. *)
    ("test.outer", 100, Short);
    ("test.inner", 110, Short);
  ]

(* Guard map: which latch site(s) must be held to touch a registered
   shared structure (LK04). *)
let guards =
  [
    ("bufpool.shard.state", [ "storage.bufpool.shard" ]);
    ("plan_cache.table", [ "server.plan_cache" ]);
    ("coordinator.links", [ "shard.coordinator" ]);
    ("test.guarded", [ "test.outer" ]);
  ]

let declared name =
  List.find_map
    (fun (n, rank, cls) -> if n = name then Some (rank, cls) else None)
    table

(* Hold-time outlier thresholds per class (LK08, warning severity).
   Short-class critical sections are O(1) structure surgery; a second
   under one means a latch is doing a lock's job. *)
let short_hold_limit_s = 1.0
let long_hold_limit_s = 60.0

let limit_for = function Short -> short_hold_limit_s | Long -> long_hold_limit_s
