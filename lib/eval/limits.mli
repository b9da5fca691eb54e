(** ILP limit study (the paper's §1 motivation, after Lam & Wilson [10]
    and Wall [20]).

    An oracle dataflow schedule of the dynamic instruction stream: every
    instruction issues as soon as its operands are ready (infinite
    resources, perfect renaming and memory disambiguation). Two regimes:

    - {b block-limited}: control dependences are barriers — no instruction
      issues before the branch that guards it; this is the basic-block ILP
      the limit studies call "very limited";
    - {b unconstrained}: control dependences eliminated (perfect
      speculation of all instructions) — the oracle the predicating
      mechanism chases;
    - {b value oracle}: additionally a perfect value predictor for loads
      and ALU results (after Mitrevski–Gušev, "On the Performance
      Potential of Speculative Execution based on Branch and Value
      Prediction") — consumers of a predicted result issue without
      waiting for it, and predicted loads skip store-to-load memory
      dependences; the producer still occupies the schedule, since a
      prediction must be verified. Its constraints are a strict subset
      of the unconstrained oracle's, so [value_ipc >= oracle_ipc]
      always.

    The ratio between the first two is the headroom that motivates the
    paper; the third bounds what even unconstrained speculation leaves
    on the table for value prediction. *)

open Psb_workloads

type row = {
  name : string;
  dyn_instrs : int;
  block_ipc : float;
  oracle_ipc : float;
  value_ipc : float;
  headroom : float;  (** oracle / block *)
  value_headroom : float;  (** value / oracle *)
}

val analyze : Dsl.t -> row
val analyze_suite :
  ?pool:Psb_parallel.Pool.t -> ?workloads:Dsl.t list -> unit -> row list
(** One row per workload (default {!Psb_workloads.Suite.all}), in order;
    with [pool], the workloads are analysed as independent pool tasks. *)

val pp : Format.formatter -> row list -> unit
