open Psb_isa
module Machine_model = Psb_machine.Machine_model
module Vliw_sim = Psb_machine.Vliw_sim
module Regfile = Psb_machine.Regfile
module Pool = Psb_parallel.Pool
open Psb_compiler
open Psb_workloads

type entry = {
  workload : Dsl.t;
  scalar : Interp.result;
  profile : Psb_cfg.Branch_predict.t;
  memory : Memory.t;
}

(* One stored VLIW run per distinct (compiled code, entry, register-file
   mode). Keys compare physically: a compile-cache hit returns the very
   value the first compile stored. *)
type stored = {
  code : Driver.compiled;
  of_entry : entry;
  mode : Regfile.mode;
  result : Vliw_sim.result;
}

type runs = {
  lock : Mutex.t;
  mutable stored : stored list;
  requests : int Atomic.t;
  executed : int Atomic.t;
}

type t = {
  machine : Machine_model.t;
  entries : entry list;
  pool : Pool.t option;
  cache : Driver.compiled Compile_cache.t;
  verify : bool;
  runs : runs;
}

let profile_workload (w : Dsl.t) =
  let memory = w.Dsl.make_mem () in
  let scalar, profile =
    Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:memory
  in
  (match scalar.Interp.outcome with
  | Interp.Halted -> ()
  | o ->
      failwith
        (Format.asprintf "Harness.create: %s did not halt (%a)" w.Dsl.name
           Interp.pp_outcome o));
  { workload = w; scalar; profile; memory }

let create ?(machine = Machine_model.base) ?(workloads = Suite.all) ?pool
    ?(verify = true) () =
  let entries =
    match pool with
    | Some p -> Pool.map_exn p profile_workload workloads
    | None -> List.map profile_workload workloads
  in
  let runs =
    {
      lock = Mutex.create ();
      stored = [];
      requests = Atomic.make 0;
      executed = Atomic.make 0;
    }
  in
  { machine; entries; pool; cache = Compile_cache.create (); verify; runs }

let jobs t = match t.pool with Some p -> Pool.jobs p | None -> 1

let par_map t f xs =
  match t.pool with Some p -> Pool.map_exn p f xs | None -> List.map f xs

let cache_stats t = Compile_cache.stats t.cache

type run_stats = { requests : int; runs : int }

let run_stats (t : t) =
  let r = t.runs in
  { requests = Atomic.get r.requests; runs = Atomic.get r.executed }

let scalar_cycles e = e.scalar.Interp.cycles

let compile t ?machine ?(single_shadow = true) ?(avoid_commit_deps = false)
    model e =
  let machine = Option.value machine ~default:t.machine in
  Driver.compile ~cache:t.cache ~single_shadow ~avoid_commit_deps
    ~verify:t.verify ~model ~machine ~profile:e.profile
    e.workload.Dsl.program

let estimated_cycles t ?machine model e =
  let compiled = compile t ?machine model e in
  Driver.estimate_cycles compiled e.workload.Dsl.program
    ~block_trace:e.scalar.Interp.block_trace

(* A run's cycle leash, from the scalar run of the same program: the
   largest VLIW/scalar cycle ratio a regeneration shows is 0.74 (li on
   region-pred), so a run that needs eight times the scalar cycles is
   looping. *)
let leash ~scalar_cycles = max 100_000 (8 * scalar_cycles)
let vliw_fuel e = leash ~scalar_cycles:(scalar_cycles e)

let measured t ?machine ?(single_shadow = true) ?regfile_mode ?events model e
    =
  let compiled = compile t ?machine ~single_shadow model e in
  let mode = Option.value regfile_mode ~default:Regfile.Single in
  let r = t.runs in
  Atomic.incr r.requests;
  let run () =
    let mem = e.workload.Dsl.make_mem () in
    let res =
      Driver.run_vliw ~fuel:(vliw_fuel e) ~regfile_mode:mode ?events compiled
        ~regs:e.workload.Dsl.regs ~mem
    in
    Atomic.incr r.executed;
    let diverged what =
      failwith
        (Format.asprintf "Harness.measured: %s/%s diverged from scalar (%s)"
           e.workload.Dsl.name model.Model.name what)
    in
    if res.Vliw_sim.outcome <> Interp.Halted then
      diverged (Format.asprintf "%a" Interp.pp_outcome res.Vliw_sim.outcome);
    if res.Vliw_sim.output <> e.scalar.Interp.output then diverged "output";
    if not (Memory.equal mem e.memory) then diverged "final memory";
    res
  in
  (* called under the lock *)
  let stored () =
    List.find_map
      (fun s ->
        if s.code == compiled && s.of_entry == e && s.mode = mode then
          Some s.result
        else None)
      r.stored
  in
  match events with
  | Some _ -> run () (* the ring is an output: always run, never store *)
  | None -> (
      match Mutex.protect r.lock stored with
      | Some res -> res
      | None ->
          let res = run () in
          Mutex.protect r.lock (fun () ->
              (* a racing domain may have stored first: keep the incumbent *)
              match stored () with
              | Some incumbent -> incumbent
              | None ->
                  r.stored <-
                    { code = compiled; of_entry = e; mode; result = res }
                    :: r.stored;
                  res))

let speedup ~scalar ~cycles = float_of_int scalar /. float_of_int cycles

let geomean = function
  | [] -> 1.0 (* the empty product: total, and the unit of aggregation *)
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
           /. float_of_int (List.length xs))
