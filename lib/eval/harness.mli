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
    sweep at any [-j] is byte-identical to the sequential one. *)

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
  verify : bool;  (** statically verify every compile (default) *)
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

val scalar_cycles : entry -> int

val compile :
  t -> ?machine:Machine_model.t -> ?single_shadow:bool ->
  ?avoid_commit_deps:bool -> Model.t -> entry -> Driver.compiled
(** All harness compiles go through the harness cache. *)

val estimated_cycles :
  t -> ?machine:Machine_model.t -> Model.t -> entry -> int
(** Trace-driven accounting on the model's schedules. *)

val measured : t -> ?single_shadow:bool ->
  ?regfile_mode:Psb_machine.Regfile.mode ->
  ?events:Psb_obs.Events.t -> Model.t -> entry ->
  Vliw_sim.result
(** Run the compiled code on the machine simulator (executable models).
    Also asserts observable equivalence with the scalar reference.
    [events] records the speculation lifecycle (see
    {!Psb_obs.Events}). *)

val speedup : scalar:int -> cycles:int -> float

val geomean : float list -> float
(** Total on every input: the geometric mean, with [geomean [] = 1.0]
    (the empty product — the identity of speedup aggregation, so an
    empty sweep reports "no change" rather than collapsing on a
    0-length fold). *)
