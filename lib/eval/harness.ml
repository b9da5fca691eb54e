open Psb_isa
module Machine_model = Psb_machine.Machine_model
module Vliw_sim = Psb_machine.Vliw_sim
module Pool = Psb_parallel.Pool
open Psb_compiler
open Psb_workloads

type entry = {
  workload : Dsl.t;
  scalar : Interp.result;
  profile : Psb_cfg.Branch_predict.t;
}

type t = {
  machine : Machine_model.t;
  entries : entry list;
  pool : Pool.t option;
  cache : Driver.compiled Compile_cache.t;
  verify : bool;
}

let profile_workload (w : Dsl.t) =
  let scalar, profile =
    Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
  in
  (match scalar.Interp.outcome with
  | Interp.Halted -> ()
  | o ->
      failwith
        (Format.asprintf "Harness.create: %s did not halt (%a)" w.Dsl.name
           Interp.pp_outcome o));
  { workload = w; scalar; profile }

let create ?(machine = Machine_model.base) ?(workloads = Suite.all) ?pool
    ?(verify = true) () =
  let entries =
    match pool with
    | Some p -> Pool.map_exn p profile_workload workloads
    | None -> List.map profile_workload workloads
  in
  { machine; entries; pool; cache = Compile_cache.create (); verify }

let jobs t = match t.pool with Some p -> Pool.jobs p | None -> 1

let par_map t f xs =
  match t.pool with Some p -> Pool.map_exn p f xs | None -> List.map f xs

let cache_stats t = Compile_cache.stats t.cache

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

let measured t ?(single_shadow = true) ?regfile_mode ?events model e =
  let compiled = compile t ~single_shadow model e in
  let mem = e.workload.Dsl.make_mem () in
  let res =
    Driver.run_vliw ?regfile_mode ?events compiled ~regs:e.workload.Dsl.regs
      ~mem
  in
  if
    not
      (res.Vliw_sim.outcome = Interp.Halted
      && res.Vliw_sim.output = e.scalar.Interp.output)
  then
    failwith
      (Format.asprintf "Harness.measured: %s/%s diverged from scalar"
         e.workload.Dsl.name model.Model.name);
  res

let speedup ~scalar ~cycles = float_of_int scalar /. float_of_int cycles

let geomean = function
  | [] -> 1.0 (* the empty product: total, and the unit of aggregation *)
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
           /. float_of_int (List.length xs))
