(** Sharded fuzzing campaigns over the pipeline differential.

    Trials are numbered [0 .. trials-1]; trial [i] derives its program
    from [Random.State.make [| magic; seed; i |]], so any counterexample
    replays from [(seed, i)] alone regardless of job count or sharding.
    Failing programs are greedily minimized through {!Gen.shrink} before
    being reported. *)

type config = {
  trials : int;
  seed : int;
  shape : Gen.shape;
  inject : Inject.t option;
  shrink : bool;
  max_shrink_steps : int;
      (** bound on accepted shrink steps (each step re-runs the whole
          differential on every candidate until one fails) *)
  max_counterexamples : int;  (** stop the campaign early at this many *)
}

val default : config
(** 200 trials, seed 0, {!Gen.default_shape}, no injection, shrinking
    on (1000 steps), stop after 5 counterexamples. *)

type counterexample = {
  cx_trial : int;  (** replay: same seed + this trial index *)
  cx_stage : string;
  cx_detail : string;
  cx_program : Gen.t;  (** minimized *)
  cx_shrink_steps : int;
}

type outcome = {
  tested : int;
  counterexamples : counterexample list;  (** in trial order *)
  wall_s : float;  (** campaign wall-clock, batching and sharding included *)
  stage_seconds : (string * float) list;
      (** cumulative per-stage seconds summed across all trials, largest
          first — {!Diff.check}'s buckets plus [gen] and [shrink]. Under a
          pool this is cross-domain CPU time, so it can exceed [wall_s]. *)
  recoveries : Diff.recoveries list;
      (** per executable model, the trials whose VLIW run entered
          recovery (by scalar outcome) and the faults it handled; shrink
          runs are not counted *)
}

val trials_per_second : outcome -> float
(** [tested /. wall_s] (0 when the campaign did no timed work). *)

val gen_trial : config -> int -> Gen.t
(** The program for one trial index (deterministic in [seed] and index). *)

val minimize : config -> Gen.t -> Diff.failure -> Gen.t * Diff.failure * int
(** Greedy descent: repeatedly take the first shrink candidate that
    still fails the differential, until a fixpoint or the step bound.
    Returns the minimized program, its (possibly different) failure, and
    the steps taken. *)

val run :
  ?pool:Psb_parallel.Pool.t ->
  ?on_progress:(tested:int -> found:int -> unit) ->
  config ->
  outcome
(** Run the campaign, sharding trials across [pool] when given (batched,
    so the early-stop bound is respected without running the full trial
    count). A trial that crashes the harness itself is reported as a
    counterexample at stage [harness]. *)

val limits_fleet :
  ?n:int -> ?shape:Gen.shape -> seed:int -> unit -> Psb_eval.Limits.row list
(** The generator fleet as an ILP limit study: [n] (default 8) random
    programs viewed as workloads through {!Gen.to_dsl}, each run once on
    the traced interpreter and replayed by {!Psb_eval.Limits.analyze} —
    block, oracle and value-prediction regimes per program. *)
