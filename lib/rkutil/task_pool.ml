type t = {
  lock : Latch.t;
  wake : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
  size : int;
}

let rec worker t =
  let job =
    Latch.lock t.lock;
    let rec take () =
      match Queue.take_opt t.jobs with
      | Some j -> Some j
      | None ->
          if t.stopping then None
          else begin
            Latch.wait t.wake t.lock;
            take ()
          end
    in
    let j = take () in
    Latch.unlock t.lock;
    j
  in
  match job with
  | None -> ()
  | Some j ->
      (* A task must not take the pool down with it: exceptions are the
         submitter's business (tasks that care thread results through their
         own channels). *)
      (try j () with _ -> ());
      (* Every job must release everything it took: a latch still held
         here leaked across the job boundary (LK06). *)
      Latch.quiesce "task_pool.job";
      worker t

let create ~domains =
  let size = max 0 domains in
  let t =
    {
      lock = Latch.create ~name:"rkutil.task_pool" ~rank:60 ();
      wake = Condition.create ();
      jobs = Queue.create ();
      stopping = false;
      domains = [];
      size;
    }
  in
  t.domains <- List.init size (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t job =
  Latch.lock t.lock;
  (* No workers means an enqueued job would never run: reject so the
     caller runs it. *)
  if t.stopping || t.size = 0 then begin
    Latch.unlock t.lock;
    false
  end
  else begin
    Queue.push job t.jobs;
    Condition.signal t.wake;
    Latch.unlock t.lock;
    true
  end

let shutdown t =
  Latch.lock t.lock;
  let ds = t.domains in
  t.stopping <- true;
  t.domains <- [];
  Condition.broadcast t.wake;
  Latch.unlock t.lock;
  Latch.blocking "task_pool.join";
  List.iter Domain.join ds
