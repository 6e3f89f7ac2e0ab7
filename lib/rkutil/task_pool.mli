(** A fixed pool of OCaml 5 domain workers draining a shared job queue.

    The query service schedules whole statements on it, one job per
    statement. Submitters that need results or exceptions must thread them
    through their own channels; a job that raises is dropped and the
    worker keeps running. A job must never block waiting for another job
    of the same pool to be scheduled. *)

type t

val create : domains:int -> t
(** Spawn [domains] worker domains (0 is legal: every submit is rejected
    and callers run the work themselves). *)

val submit : t -> (unit -> unit) -> bool
(** Enqueue a job; returns [false] if the pool is shutting down (the job
    is not enqueued — the caller must run or drop it). *)

val shutdown : t -> unit
(** Stop accepting new jobs, drain the queue, join the workers.
    Idempotent. *)
