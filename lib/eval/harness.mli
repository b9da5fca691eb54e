(** Shared experiment harness: scalar reference runs, profiles, per-model
    cycle measurements, and speedup arithmetic.

    Methodology (recorded in EXPERIMENTS.md): all figures use the
    trace-driven cycle estimates so that predicated and non-predicated
    models are compared under one accounting; the machine-measured cycles
    of the executable models are reported separately as validation and in
    the ablations.

    Scale: a harness optionally carries a {!Psb_parallel.Pool.t}; when it
    does, {!create} profiles workloads concurrently and {!par_map} shards
    experiment cells over the pool. Every harness carries a
    {!Psb_compiler.Compile_cache} shared by all its compiles (and all
    pool domains), so repeated (program × model × machine) cells across
    figures reuse schedules instead of recompiling. Both are invisible in
    the results: cells are pure, result order is by input position, and
    cache hits return the same (deterministically compiled) value — so a
    sweep at any [-j] is byte-identical to the sequential one.

    A harness also keeps one result per distinct VLIW run ({!measured}),
    so the experiments that measure the same code on the same workload —
    [shadow], [validation] and [btb] all run region-pred on the base
    machine — share one simulation. *)

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
  memory : Memory.t;  (** the scalar run's final memory *)
}

type runs
(** The harness's stored VLIW runs; read them through {!measured} and
    count them with {!run_stats}. *)

type t = {
  machine : Machine_model.t;
  entries : entry list;
  pool : Pool.t option;
  cache : Driver.compiled Compile_cache.t;
  verify : bool;  (** statically verify every compile (default) *)
  runs : runs;
}

val create :
  ?machine:Machine_model.t -> ?workloads:Dsl.t list -> ?pool:Pool.t ->
  ?verify:bool -> unit -> t
(** With [pool], the per-workload profiling runs (scalar reference +
    profile construction) execute as parallel tasks.

    [verify] (default [true]) is threaded into every {!compile}: each
    schedule an experiment uses has passed the static speculation-safety
    verifier ({!Psb_verify.Verify}), so a figure can never be computed
    from unsafe code. Pass [verify:false] to trade the safety net for
    compile time in large exploratory sweeps ([bench --no-verify]). *)

val jobs : t -> int
(** Pool width; [1] when the harness is sequential. *)

val par_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Map over independent experiment cells: through the pool when
    present (input-order results, per-task exception capture — the
    batch completes before the first failure re-raises), plain
    [List.map] otherwise. Do not nest: [f] must not itself call
    [par_map] on the same harness. *)

val cache_stats : t -> Compile_cache.stats

type run_stats = {
  requests : int;  (** {!measured} calls *)
  runs : int;  (** of those, the ones that ran the simulator *)
}

val run_stats : t -> run_stats

val scalar_cycles : entry -> int

val compile :
  t -> ?machine:Machine_model.t -> ?single_shadow:bool ->
  ?avoid_commit_deps:bool -> Model.t -> entry -> Driver.compiled
(** All harness compiles go through the harness cache. *)

val estimated_cycles :
  t -> ?machine:Machine_model.t -> Model.t -> entry -> int
(** Trace-driven accounting on the model's schedules. *)

val leash : scalar_cycles:int -> int
(** The cycle bound of a VLIW run of a program whose scalar run took
    [scalar_cycles]: eight times that, at least 100,000. No regeneration
    run needs more than 0.74 times the scalar cycles, so a run that
    reaches the bound is looping. {!measured} and every [psb] command
    that makes a scalar run bound their VLIW runs by it. *)

val measured : t -> ?machine:Machine_model.t -> ?single_shadow:bool ->
  ?regfile_mode:Psb_machine.Regfile.mode ->
  ?events:Psb_obs.Events.t -> Model.t -> entry ->
  Vliw_sim.result
(** Run the compiled code on the machine simulator (executable models)
    and fail unless it halts with the scalar reference's output and
    final memory. [machine], [single_shadow] and [model] select the code
    as {!compile} does. The run's cycle bound is eight times the entry's
    scalar cycles (at least 100,000), so code that loops fails as out of
    fuel instead of running to the simulator's default.

    The harness keeps one result per (compiled code, entry,
    [regfile_mode]), an absent mode meaning [Single]: a later call for
    the same run returns the stored result, physically, without running
    or checking again (the first run was checked). Code compares
    physically, which is exact because a compile-cache hit returns the
    stored compile. It always compiles first, so the compile-cache
    counters do not depend on the stored runs. The store is domain-safe;
    two tasks racing on one run both run it and the first stored result
    wins.

    [events] records the speculation lifecycle (see {!Psb_obs.Events});
    a call with a ring always runs, and its result is not stored. *)

val speedup : scalar:int -> cycles:int -> float

val geomean : float list -> float
(** Total on every input: the geometric mean, with [geomean [] = 1.0]
    (the empty product — the identity of speedup aggregation, so an
    empty sweep reports "no change" rather than collapsing on a
    0-length fold). *)
