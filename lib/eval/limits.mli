(** ILP limit study (the paper's §1 motivation, after Lam & Wilson [10]
    and Wall [20]).

    An oracle dataflow schedule of the dynamic instruction stream: every
    instruction issues as soon as its operands are ready (infinite
    resources, perfect renaming and memory disambiguation). Three
    regimes:

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

val analyze : Dsl.t -> scalar:Psb_isa.Interp.result -> row
(** Replay [scalar], a traced scalar run of the workload's program (as
    {!Psb_isa.Interp.run} records by default, or a harness entry's
    [scalar]), through the three regimes. Latencies are the base
    machine's. The replay walks {!Psb_isa.Decoded}'s flat arrays, keeps
    register values and ready times in int arrays sized from the
    program, and each address's last store completion in a flat table,
    addresses outside memory included; it allocates nothing per dynamic
    op beyond what {!Psb_isa.Memory} allocates. Every block of the trace
    is replayed whole, a fatal run's last block too, and the replay is
    fault-tolerant: a demand page is mapped and the access retried, a
    fatal access reads 0 and drops the write, and a faulting ALU op
    writes 0. *)

val pp : Format.formatter -> row list -> unit
