type cls = Short | Long
type mode = Shared | Exclusive

type t = { l_name : string; l_rank : int; l_cls : cls; l_inst : int; l_m : Mutex.t }

type hooks = {
  h_acquire : t -> mode -> unit;
  h_release : t -> mode -> unit;
  h_blocking : t option -> string -> unit;
  h_guarded : t -> string -> unit;
  h_quiesce : string -> unit;
}

let hooks : hooks option ref = ref None

let next_inst = Atomic.make 0

let create ~name ~rank ?(cls = Short) () =
  {
    l_name = name;
    l_rank = rank;
    l_cls = cls;
    l_inst = Atomic.fetch_and_add next_inst 1;
    l_m = Mutex.create ();
  }

let name t = t.l_name
let rank t = t.l_rank
let cls t = t.l_cls
let instance t = t.l_inst

let[@inline] on_acquire t m =
  match !hooks with None -> () | Some h -> h.h_acquire t m

let[@inline] on_release t m =
  match !hooks with None -> () | Some h -> h.h_release t m

let lock t =
  on_acquire t Exclusive;
  Mutex.lock t.l_m

let unlock t =
  (* Release hook AFTER dropping the mutex: the hook's bookkeeping is all
     thread-local, and running it outside the critical section keeps
     instrumentation from lengthening every other thread's wait. *)
  Mutex.unlock t.l_m;
  on_release t Exclusive

(* Releases on every unwind, as [Fun.protect] would, without building its
   [finally] closure on each call. *)
let protect t f =
  lock t;
  match f () with
  | x ->
      unlock t;
      x
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      unlock t;
      Printexc.raise_with_backtrace e bt

let wait c t =
  (* Condition.wait atomically releases the mutex, so for the sanitizer
     this is a release followed by a fresh acquisition: parked threads do
     not hold their latch, and hold-time excludes the wait. *)
  on_release t Exclusive;
  Condition.wait c t.l_m;
  on_acquire t Exclusive

module Rw = struct
  type rw = {
    rw_l : t;
    rw_readers_done : Condition.t;  (* signalled when the last reader leaves *)
    rw_turn : Condition.t;  (* signalled when a writer leaves *)
    mutable rw_readers : int;
    mutable rw_writer : bool;
    mutable rw_waiting_writers : int;
  }

  let create ~name ~rank ?(cls = Long) () =
    {
      rw_l = create ~name ~rank ~cls ();
      rw_readers_done = Condition.create ();
      rw_turn = Condition.create ();
      rw_readers = 0;
      rw_writer = false;
      rw_waiting_writers = 0;
    }

  (* The internal mutex serializes state-field updates only and is never
     held across a user critical section: it stays raw so the sanitizer
     sees just the logical Shared/Exclusive acquisitions of the site. *)

  let lock_read t =
    on_acquire t.rw_l Shared;
    Mutex.protect t.rw_l.l_m (fun () ->
        while t.rw_writer || t.rw_waiting_writers > 0 do
          Condition.wait t.rw_turn t.rw_l.l_m
        done;
        t.rw_readers <- t.rw_readers + 1)

  let unlock_read t =
    on_release t.rw_l Shared;
    Mutex.protect t.rw_l.l_m (fun () ->
        t.rw_readers <- t.rw_readers - 1;
        if t.rw_readers = 0 then Condition.signal t.rw_readers_done)

  let lock_write t =
    on_acquire t.rw_l Exclusive;
    Mutex.protect t.rw_l.l_m (fun () ->
        t.rw_waiting_writers <- t.rw_waiting_writers + 1;
        while t.rw_writer do
          Condition.wait t.rw_turn t.rw_l.l_m
        done;
        t.rw_writer <- true;
        t.rw_waiting_writers <- t.rw_waiting_writers - 1;
        while t.rw_readers > 0 do
          Condition.wait t.rw_readers_done t.rw_l.l_m
        done)

  let unlock_write t =
    on_release t.rw_l Exclusive;
    Mutex.protect t.rw_l.l_m (fun () ->
        t.rw_writer <- false;
        Condition.broadcast t.rw_turn)

  let with_read t f =
    lock_read t;
    Fun.protect ~finally:(fun () -> unlock_read t) f

  let with_write t f =
    lock_write t;
    Fun.protect ~finally:(fun () -> unlock_write t) f
end

let blocking ?self what =
  match !hooks with None -> () | Some h -> h.h_blocking self what

(* Non-optional variant: the caller's [Some] and the guard list below are
   built only when hooks are installed, so production call sites on hot
   paths (the buffer pool runs these per page access) allocate nothing. *)
let blocking_self self what =
  match !hooks with None -> () | Some h -> h.h_blocking (Some self) what

let guarded latch what =
  match !hooks with None -> () | Some h -> h.h_guarded latch what

let quiesce label =
  match !hooks with None -> () | Some h -> h.h_quiesce label
