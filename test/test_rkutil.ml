(* Tests for the rkutil substrate: PRNG, heap, math helpers, stats, task pool. *)

let test_prng_determinism () =
  let a = Rkutil.Prng.create 7 and b = Rkutil.Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rkutil.Prng.bits64 a) (Rkutil.Prng.bits64 b)
  done

let test_prng_different_seeds () =
  let a = Rkutil.Prng.create 1 and b = Rkutil.Prng.create 2 in
  Alcotest.(check bool) "different streams" false
    (Rkutil.Prng.bits64 a = Rkutil.Prng.bits64 b)

let test_prng_int_range () =
  let g = Rkutil.Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Rkutil.Prng.int g 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done

let test_prng_uniform_range () =
  let g = Rkutil.Prng.create 4 in
  for _ = 1 to 1000 do
    let x = Rkutil.Prng.uniform g in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_uniform_mean () =
  let g = Rkutil.Prng.create 5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rkutil.Prng.uniform g
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

let test_prng_gaussian_moments () =
  let g = Rkutil.Prng.create 6 in
  let n = 50_000 in
  let xs = List.init n (fun _ -> Rkutil.Prng.gaussian g) in
  let mean = List.fold_left ( +. ) 0.0 xs /. float_of_int n in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
    /. float_of_int (n - 1)
  in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "sd near 1" true (Float.abs (Float.sqrt var -. 1.0) < 0.03)

let test_prng_shuffle_permutation () =
  let g = Rkutil.Prng.create 8 in
  let a = Array.init 50 Fun.id in
  Rkutil.Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_split_independent () =
  let g = Rkutil.Prng.create 9 in
  let h = Rkutil.Prng.split g in
  let x = Rkutil.Prng.bits64 g and y = Rkutil.Prng.bits64 h in
  Alcotest.(check bool) "distinct values" true (x <> y)

let test_heap_basic () =
  let h = Rkutil.Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Rkutil.Heap.is_empty h);
  Rkutil.Heap.push h 3;
  Rkutil.Heap.push h 1;
  Rkutil.Heap.push h 2;
  Alcotest.(check (option int)) "peek min" (Some 1) (Rkutil.Heap.peek h);
  Alcotest.(check (list int)) "drain sorted" [ 1; 2; 3 ] (Rkutil.Heap.drain h);
  Alcotest.(check bool) "empty again" true (Rkutil.Heap.is_empty h)

let test_heap_pop_exn_empty () =
  let h = Rkutil.Heap.create ~cmp:compare in
  Alcotest.check_raises "pop_exn raises"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Rkutil.Heap.pop_exn h : int))

let prop_heap_drain_sorted =
  QCheck.Test.make ~name:"heap: drain is sorted" ~count:300
    QCheck.(list int)
    (fun xs ->
      let h = Rkutil.Heap.of_list ~cmp:compare xs in
      let drained = Rkutil.Heap.drain h in
      drained = List.sort compare xs)

let prop_heap_length =
  QCheck.Test.make ~name:"heap: length tracks pushes/pops" ~count:300
    QCheck.(list small_int)
    (fun xs ->
      let h = Rkutil.Heap.create ~cmp:compare in
      List.iter (Rkutil.Heap.push h) xs;
      let n0 = Rkutil.Heap.length h in
      ignore (Rkutil.Heap.pop h);
      let n1 = Rkutil.Heap.length h in
      n0 = List.length xs && n1 = max 0 (n0 - 1))

let prop_heap_max_order =
  QCheck.Test.make ~name:"heap: inverted cmp gives descending drain" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Rkutil.Heap.of_list ~cmp:(fun a b -> compare b a) xs in
      Rkutil.Heap.drain h = List.rev (List.sort compare xs))

let test_log_factorial_small () =
  let fact n =
    let rec go acc i = if i > n then acc else go (acc *. float_of_int i) (i + 1) in
    go 1.0 1
  in
  for n = 0 to 20 do
    Test_util.check_floats_close ~eps:1e-12
      (Printf.sprintf "log %d!" n)
      (log (fact n))
      (Rkutil.Mathx.log_factorial n)
  done

let test_log_factorial_stirling_continuity () =
  (* The exact table ends at 256; verify continuity across the switch. *)
  let a = Rkutil.Mathx.log_factorial 256 in
  let b = Rkutil.Mathx.log_factorial 257 in
  Test_util.check_floats_close ~eps:1e-9 "ln 257! = ln 256! + ln 257"
    (a +. log 257.0) b

let test_bisect_root () =
  let f x = (x *. x) -. 2.0 in
  let r = Rkutil.Mathx.bisect ~f ~lo:0.0 ~hi:2.0 () in
  Test_util.check_floats_close ~eps:1e-9 "sqrt 2" (sqrt 2.0) r

let test_bisect_monotone_decreasing () =
  let f x = 10.0 -. x in
  let r = Rkutil.Mathx.bisect ~f ~lo:0.0 ~hi:100.0 () in
  Test_util.check_floats_close ~eps:1e-9 "root at 10" 10.0 r

let test_clamp () =
  Alcotest.(check (float 0.0)) "below" 1.0 (Rkutil.Mathx.clamp ~lo:1.0 ~hi:2.0 0.5);
  Alcotest.(check (float 0.0)) "above" 2.0 (Rkutil.Mathx.clamp ~lo:1.0 ~hi:2.0 9.0);
  Alcotest.(check (float 0.0)) "inside" 1.5 (Rkutil.Mathx.clamp ~lo:1.0 ~hi:2.0 1.5)

let test_ceil_to_int () =
  Alcotest.(check int) "2.1 -> 3" 3 (Rkutil.Mathx.ceil_to_int 2.1);
  Alcotest.(check int) "neg -> 0" 0 (Rkutil.Mathx.ceil_to_int (-5.0));
  Alcotest.(check int) "nan -> 0" 0 (Rkutil.Mathx.ceil_to_int Float.nan);
  Alcotest.(check int) "exact" 2 (Rkutil.Mathx.ceil_to_int 2.0);
  Alcotest.(check int) "inf saturates" max_int (Rkutil.Mathx.ceil_to_int infinity)

(* Popped/cleared elements must not be pinned by stale slots in the heap's
   backing array: attach finalisers to boxed elements, drop them all, and
   check the GC can reclaim them while the heap itself stays live. *)
let test_heap_pop_releases_elements () =
  let finalised = ref 0 in
  let heap = Rkutil.Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  for i = 1 to 50 do
    let boxed = ref i in
    Gc.finalise (fun _ -> incr finalised) boxed;
    Rkutil.Heap.push heap (i, boxed)
  done;
  let rec drain () = match Rkutil.Heap.pop heap with Some _ -> drain () | None -> () in
  drain ();
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "heap empty but alive" 0 (Rkutil.Heap.length heap);
  Alcotest.(check int) "all popped elements collected" 50 !finalised

let test_heap_clear_releases_elements () =
  let finalised = ref 0 in
  let heap = Rkutil.Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  for i = 1 to 50 do
    let boxed = ref i in
    Gc.finalise (fun _ -> incr finalised) boxed;
    Rkutil.Heap.push heap (i, boxed)
  done;
  Rkutil.Heap.clear heap;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "cleared heap alive" 0 (Rkutil.Heap.length heap);
  Alcotest.(check int) "all cleared elements collected" 50 !finalised;
  (* The heap must stay fully usable after clear. *)
  List.iter (fun x -> Rkutil.Heap.push heap (x, ref x)) [ 3; 1; 2 ];
  Alcotest.(check int) "reusable after clear" 3 (Rkutil.Heap.length heap);
  match Rkutil.Heap.pop heap with
  | Some (x, _) -> Alcotest.(check int) "min first" 1 x
  | None -> Alcotest.fail "pop after refill"

let with_pool domains f =
  let pool = Rkutil.Task_pool.create ~domains in
  Fun.protect ~finally:(fun () -> Rkutil.Task_pool.shutdown pool) (fun () -> f pool)

let test_pool_runs_jobs () =
  with_pool 3 (fun pool ->
      let counter = Atomic.make 0 in
      for _ = 1 to 100 do
        Alcotest.(check bool) "submitted" true
          (Rkutil.Task_pool.submit pool (fun () -> Atomic.incr counter))
      done;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Atomic.get counter < 100 && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done;
      Alcotest.(check int) "all jobs ran" 100 (Atomic.get counter))

let test_pool_shutdown_rejects () =
  let pool = Rkutil.Task_pool.create ~domains:2 in
  Rkutil.Task_pool.shutdown pool;
  Alcotest.(check bool) "submit after shutdown" false
    (Rkutil.Task_pool.submit pool (fun () -> ()))

let test_pool_zero_domains () =
  let pool = Rkutil.Task_pool.create ~domains:0 in
  Alcotest.(check bool) "zero-domain pool rejects" false
    (Rkutil.Task_pool.submit pool (fun () -> ()));
  Rkutil.Task_pool.shutdown pool

(* LK06: an exception raised inside [protect] must leave the latch free.
   A second acquisition from this thread would raise [Sys_error] (OCaml 5
   mutexes check errors) if the first were still held; one from another
   domain would block forever. *)
let test_latch_protect_releases_on_exception () =
  let l = Rkutil.Latch.create ~name:"test.latch" ~rank:1 () in
  Alcotest.check_raises "exception passes through" Exit (fun () ->
      Rkutil.Latch.protect l (fun () -> raise Exit));
  Alcotest.(check int) "latch free for this thread" 7
    (Rkutil.Latch.protect l (fun () -> 7));
  let other = Domain.spawn (fun () -> Rkutil.Latch.protect l (fun () -> 8)) in
  Alcotest.(check int) "latch free for another domain" 8 (Domain.join other)

let suites =
  [
    ( "rkutil.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "different seeds" `Quick test_prng_different_seeds;
        Alcotest.test_case "int range" `Quick test_prng_int_range;
        Alcotest.test_case "uniform range" `Quick test_prng_uniform_range;
        Alcotest.test_case "uniform mean" `Quick test_prng_uniform_mean;
        Alcotest.test_case "gaussian moments" `Quick test_prng_gaussian_moments;
        Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
      ] );
    ( "rkutil.heap",
      [
        Alcotest.test_case "basic" `Quick test_heap_basic;
        Alcotest.test_case "pop_exn empty" `Quick test_heap_pop_exn_empty;
        Alcotest.test_case "pop releases slots" `Quick test_heap_pop_releases_elements;
        Alcotest.test_case "clear releases slots" `Quick test_heap_clear_releases_elements;
        QCheck_alcotest.to_alcotest prop_heap_drain_sorted;
        QCheck_alcotest.to_alcotest prop_heap_length;
        QCheck_alcotest.to_alcotest prop_heap_max_order;
      ] );
    ( "rkutil.latch",
      [
        Alcotest.test_case "protect releases on exception" `Quick
          test_latch_protect_releases_on_exception;
      ] );
    ( "rkutil.mathx",
      [
        Alcotest.test_case "log_factorial small" `Quick test_log_factorial_small;
        Alcotest.test_case "log_factorial continuity" `Quick
          test_log_factorial_stirling_continuity;
        Alcotest.test_case "bisect sqrt2" `Quick test_bisect_root;
        Alcotest.test_case "bisect decreasing" `Quick test_bisect_monotone_decreasing;
        Alcotest.test_case "clamp" `Quick test_clamp;
        Alcotest.test_case "ceil_to_int" `Quick test_ceil_to_int;
      ] );
    ( "rkutil.task_pool",
      [
        Alcotest.test_case "pool: runs jobs" `Quick test_pool_runs_jobs;
        Alcotest.test_case "pool: shutdown rejects" `Quick
          test_pool_shutdown_rejects;
        Alcotest.test_case "pool: zero domains" `Quick test_pool_zero_domains;
      ] );
  ]
