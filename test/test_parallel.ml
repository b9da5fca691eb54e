(* Unit tests for the work-stealing domain pool: deterministic result
   ordering, per-task exception capture, stats accounting, and the deque
   underneath it. These run at several pool widths — including widths
   well above the machine's core count — because the ordering and
   capture contracts must not depend on how tasks land on domains. *)

module Pool = Psb_parallel.Pool
module Deque = Psb_parallel.Deque

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

exception Boom of int

(* ----- deque ----- *)

let test_deque_lifo_fifo () =
  let d = Deque.create () in
  List.iter (fun i -> Deque.push d i) [ 1; 2; 3; 4 ];
  check_int "length" 4 (Deque.length d);
  (* owner pops LIFO *)
  check_bool "pop newest" true (Deque.pop d = Some 4);
  (* thief steals FIFO *)
  check_bool "steal oldest" true (Deque.steal d = Some 1);
  check_bool "pop" true (Deque.pop d = Some 3);
  check_bool "steal" true (Deque.steal d = Some 2);
  check_bool "empty pop" true (Deque.pop d = None);
  check_bool "empty steal" true (Deque.steal d = None)

let test_deque_grow () =
  let d = Deque.create () in
  let n = 1000 in
  for i = 1 to n do
    Deque.push d i
  done;
  check_int "all queued" n (Deque.length d);
  (* drain alternating from both ends; everything comes out once *)
  let seen = Hashtbl.create n in
  for k = 0 to n - 1 do
    let v = if k mod 2 = 0 then Deque.pop d else Deque.steal d in
    match v with
    | Some v ->
        check_bool "no duplicate" false (Hashtbl.mem seen v);
        Hashtbl.add seen v ()
    | None -> Alcotest.fail "premature empty"
  done;
  check_int "drained" 0 (Deque.length d)

(* ----- pool: ordering ----- *)

let test_map_order jobs () =
  Pool.with_pool ~jobs (fun p ->
      let inputs = List.init 200 Fun.id in
      let out = Pool.map_exn p (fun x -> (x * x) + 1) inputs in
      List.iteri
        (fun i y -> check_int (Printf.sprintf "slot %d" i) ((i * i) + 1) y)
        out;
      (* a second batch on the same pool still works *)
      let out2 = Pool.map_exn p string_of_int inputs in
      check_bool "second batch" true
        (out2 = List.map string_of_int inputs))

(* ----- pool: exception capture ----- *)

let test_exception_capture jobs () =
  Pool.with_pool ~jobs (fun p ->
      let inputs = List.init 50 Fun.id in
      let out =
        Pool.map p (fun x -> if x = 17 then raise (Boom x) else x) inputs
      in
      check_int "all slots present" 50 (List.length out);
      List.iteri
        (fun i r ->
          match r with
          | Ok v -> check_int "ok slot" i v
          | Error e ->
              check_int "failing slot is 17" 17 i;
              check_bool "carries the exception" true (e.Pool.exn = Boom 17))
        out)

let test_map_exn_reraises jobs () =
  Pool.with_pool ~jobs (fun p ->
      match
        Pool.map_exn p (fun x -> if x mod 3 = 1 then raise (Boom x) else x)
          (List.init 9 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 1 -> ()
      (* first failure in input order, not completion order *)
      | exception Boom n -> Alcotest.failf "re-raised Boom %d, want Boom 1" n)

(* ----- pool: accounting and lifecycle ----- *)

(* The counters are read as soon as [map] returns, after each of many
   batches: a task must be counted before it signals the batch done, or
   the caller can read the stats one task short. *)
let test_stats () =
  Pool.with_pool ~jobs:4 (fun p ->
      check_int "jobs" 4 (Pool.jobs p);
      let n = 64 and batches = 500 in
      for b = 1 to batches do
        ignore (Pool.map_exn p (fun x -> x + 1) (List.init n Fun.id));
        let total =
          Array.fold_left (fun acc s -> acc + s.Pool.tasks) 0 (Pool.stats p)
        in
        if total <> b * n then
          Alcotest.failf "after batch %d: %d tasks accounted, expected %d" b
            total (b * n)
      done;
      let stats = Pool.stats p in
      check_int "one stat per domain" 4 (Array.length stats);
      Array.iter
        (fun s -> check_bool "busy time non-negative" true (s.Pool.busy_seconds >= 0.))
        stats)

let test_sequential_inline () =
  (* jobs = 1 spawns nothing and runs inline, preserving the contract *)
  Pool.with_pool ~jobs:1 (fun p ->
      check_int "jobs" 1 (Pool.jobs p);
      let out = Pool.map p (fun x -> if x = 2 then raise Exit else -x) [ 0; 1; 2; 3 ] in
      check_bool "inline capture" true
        (match out with
        | [ Ok 0; Ok -1; Error e; Ok -3 ] -> e.Pool.exn = Exit
        | _ -> false);
      check_int "one domain stat" 1 (Array.length (Pool.stats p)))

let test_shutdown_idempotent () =
  let p = Pool.create ~jobs:3 () in
  ignore (Pool.map_exn p Fun.id [ 1; 2; 3 ]);
  Pool.shutdown p;
  Pool.shutdown p (* second shutdown is a no-op *)

let test_invalid_jobs () =
  match Pool.create ~jobs:0 () with
  | _ -> Alcotest.fail "jobs = 0 should be rejected"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "parallel"
    [
      ( "deque",
        [
          Alcotest.test_case "owner LIFO / thief FIFO" `Quick test_deque_lifo_fifo;
          Alcotest.test_case "grow and drain" `Quick test_deque_grow;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "map order, jobs=1" `Quick (test_map_order 1);
          Alcotest.test_case "map order, jobs=2" `Quick (test_map_order 2);
          Alcotest.test_case "map order, jobs=8" `Quick (test_map_order 8);
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "capture, jobs=1" `Quick (test_exception_capture 1);
          Alcotest.test_case "capture, jobs=4" `Quick (test_exception_capture 4);
          Alcotest.test_case "map_exn re-raise, jobs=1" `Quick
            (test_map_exn_reraises 1);
          Alcotest.test_case "map_exn re-raise, jobs=4" `Quick
            (test_map_exn_reraises 4);
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "stats accounting" `Quick test_stats;
          Alcotest.test_case "jobs=1 inline" `Quick test_sequential_inline;
          Alcotest.test_case "double shutdown" `Quick test_shutdown_idempotent;
          Alcotest.test_case "jobs=0 rejected" `Quick test_invalid_jobs;
        ] );
    ]
