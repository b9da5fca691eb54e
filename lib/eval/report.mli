(** Machine-readable (JSON) serialisation of the experiment results —
    the schema behind [bench/main.exe --json] and future benchmark
    trajectories.

    Document shape:
    {v
    { "schema_version": 4,
      "experiments": {
        "table2":     [ {"name", "lines", "scalar_cycles"} ... ],
        "table3":     [ {"name", "accuracy": [..8 floats..]} ... ],
        "fig6" / "fig7" / "related":
                      { "models": [..], "rows": [{"name", "speedups"}..],
                        "geomean": [..] },
        "fig8":       [ {"name", "cells": [{"issue","conds","speedup"}..]} ],
        "shadow":     [ {"name", "single_cycles", "infinite_cycles",
                         "conflicts", "loss"} ... ],
        "validation": [ {"name", "model", "estimated", "measured"} ... ],
        "counter":    [ {"name", "vector", "counter"} ... ],
        "btb":        [ {"name", "free", "miss1"} ... ],
        "dup":        [ {"name", "merged", "split"} ... ],
        "size":       [ {"name", "scalar", "by_model": {..}} ... ],
        "unroll":     [ {"name", "by_factor": [{"factor","speedup"}..]} ],
        "sweep":      [ {"taken_prob", "trace", "region"} ... ],
        "limits":     [ {"name", "dyn_instrs", "block_ipc", "oracle_ipc",
                         "headroom"} ... ],
        "hwcost":     { ... the Hwcost.report fields ... },
        "rob":        { "rows": [{"name", "scalar_cycles", "rob_cycles",
                         "speedup", "mispredicts", "squashed",
                         "architecturally_identical"}..],
                        "geomean" } },
      "runtime":      (optional, only with [~runtime:true])
                      { "jobs", "domains": [{"domain","tasks",
                        "busy_seconds"}..],
                        "compile_cache": {"hits","misses","entries"},
                        "vliw_runs": {"requests","runs"},
                        "experiments_wall_seconds": {name: seconds, ..},
                        "wall_seconds",
                        "speculation": {workload:
                          {"model", "cycles", "reconciles", "commits",
                           "regions": [{"region","cycles","useful",
                           "wasted","squash_rate"}..]}, ..} } }
    v}

    Schema 3 adds the "speculation" member: per-workload speculation
    scorecards from one {!Psb_obs.Spec_profile} run of the flagship
    executable model ({!Psb_compiler.Model.region_pred}) with the
    structured event log attached.

    Schema 4 adds the "rob" experiment (the rival out-of-order backend,
    {!Psb_machine.Rob_sim}, vs the scalar reference) and the four
    [rob_*] cost columns inside "hwcost".

    "vliw_runs" counts {!Harness.measured}'s requests and the runs it
    made (a full regeneration asks for 42 and makes 30); like
    "compile_cache" it is read before the speculation runs. Adding it
    kept schema 4: it only adds a member to the nondeterministic
    section.

    Everything under "experiments" is deterministic — byte-identical at
    any [-j] level. "runtime" is the sole nondeterministic member
    (wall-clock, per-domain load and cache traffic depend on
    scheduling); strip it before comparing documents.

    A golden test round-trips the document through {!Psb_obs.Json.parse}
    so the schema cannot drift silently. *)

module Json = Psb_obs.Json

val experiments :
  (string * string * (Harness.t Lazy.t -> Format.formatter -> unit)) list
(** Every experiment as [(name, description, printer)], in canonical
    order: the text report both [bench/main.exe] and [psb experiments]
    print. A printer forces the harness only if the experiment needs it. *)

val experiment_names : string list
(** Every name {!experiment} accepts, in canonical order (the names of
    {!experiments}). *)

val experiment : Harness.t -> string -> Json.t option
(** Run one experiment by its bench/CLI name; [None] for unknown names. *)

val all : ?names:string list -> ?runtime:bool -> Harness.t -> Json.t
(** The full document ([names] defaults to {!experiment_names});
    [~runtime:true] (default false) appends the "runtime" member with
    per-domain wall-clock, compile-cache and VLIW-run statistics.
    @raise Invalid_argument on an unknown name. *)

val speedup_table_json : Experiments.speedup_table -> Json.t
