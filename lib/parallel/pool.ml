type error = { exn : exn; backtrace : Printexc.raw_backtrace }
type domain_stat = { tasks : int; busy_seconds : float }

(* A task is a closure that stores its own result slot and counts itself
   on the worker that runs it; the scheduler only ever sees
   [worker -> unit]. *)
type worker = {
  deque : (worker -> unit) Deque.t;
  mutable w_tasks : int;
  mutable w_busy : float;
}

type t = {
  workers : worker array;  (* index 0 belongs to the calling domain *)
  mutable domains : unit Domain.t array;
  lock : Mutex.t;  (* guards sleeping/wakeup and [stop] *)
  wake : Condition.t;
  queued : int Atomic.t;  (* tasks pushed but not yet taken *)
  mutable stop : bool;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Take a task: own deque first (LIFO), then steal round-robin (FIFO).
   The [queued] decrement happens at the moment of a successful take, so
   [queued > 0] means a task is findable (or being taken right now). *)
let find_task t me =
  let n = Array.length t.workers in
  let taken = ref (Deque.pop t.workers.(me).deque) in
  let i = ref 1 in
  while !taken = None && !i < n do
    taken := Deque.steal t.workers.((me + !i) mod n).deque;
    incr i
  done;
  (match !taken with Some _ -> Atomic.decr t.queued | None -> ());
  !taken

(* Charge one task, started at [t0], to worker [w]. *)
let account w t0 =
  w.w_busy <- w.w_busy +. (Unix.gettimeofday () -. t0);
  w.w_tasks <- w.w_tasks + 1

let worker_loop t me () =
  let rec loop () =
    match find_task t me with
    | Some task ->
        task t.workers.(me);
        loop ()
    | None ->
        Mutex.lock t.lock;
        let stop = t.stop in
        if (not stop) && Atomic.get t.queued = 0 then Condition.wait t.wake t.lock;
        Mutex.unlock t.lock;
        if not stop then loop ()
  in
  loop ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let workers =
    Array.init jobs (fun _ ->
        { deque = Deque.create (); w_tasks = 0; w_busy = 0. })
  in
  let t =
    {
      workers;
      domains = [||];
      lock = Mutex.create ();
      wake = Condition.create ();
      queued = Atomic.make 0;
      stop = false;
    }
  in
  t.domains <- Array.init (jobs - 1) (fun i -> Domain.spawn (worker_loop t (i + 1)));
  t

let jobs t = Array.length t.workers

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.lock;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let capture f x =
  try Ok (f x)
  with exn -> Error { exn; backtrace = Printexc.get_raw_backtrace () }

let map_seq t f items =
  (* jobs = 1: no scheduler, but identical per-task capture semantics. *)
  List.map
    (fun x ->
      let t0 = Unix.gettimeofday () in
      let r = capture f x in
      account t.workers.(0) t0;
      r)
    items

let map t f items =
  let n = List.length items in
  let jobs = Array.length t.workers in
  if jobs = 1 || n <= 1 then map_seq t f items
  else begin
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let fin_lock = Mutex.create () in
    let finished = Condition.create () in
    List.iteri
      (fun idx item ->
        let task w =
          let t0 = Unix.gettimeofday () in
          let r = capture f item in
          results.(idx) <- Some r;
          (* counted before the batch can complete, so the caller that
             returns from [map] reads every task of it in [stats] *)
          account w t0;
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            Mutex.lock fin_lock;
            Condition.broadcast finished;
            Mutex.unlock fin_lock
          end
        in
        Deque.push t.workers.(idx mod jobs).deque task;
        Atomic.incr t.queued)
      items;
    Mutex.lock t.lock;
    Condition.broadcast t.wake;
    Mutex.unlock t.lock;
    (* The caller works the batch as worker 0, then sleeps until the
       last in-flight task signals completion. *)
    let rec help () =
      if Atomic.get remaining > 0 then begin
        (match find_task t 0 with
        | Some task -> task t.workers.(0)
        | None ->
            Mutex.lock fin_lock;
            if Atomic.get remaining > 0 then Condition.wait finished fin_lock;
            Mutex.unlock fin_lock);
        help ()
      end
    in
    help ();
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* remaining = 0 implies every slot filled *))
         results)
  end

let map_exn t f items =
  let results = map t f items in
  List.map
    (function
      | Ok v -> v
      | Error { exn; backtrace } -> Printexc.raise_with_backtrace exn backtrace)
    results

let stats t =
  Array.map (fun w -> { tasks = w.w_tasks; busy_seconds = w.w_busy }) t.workers
