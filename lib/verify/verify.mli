(** Static speculation-safety verifier for compiled predicated code.

    The paper's predicating mechanism is only sound if every compiled
    schedule respects a catalogue of structural invariants — predicates
    resolve before the exits that need them, buffered speculative state
    fits the machine's shadow-register and store-buffer capacity on every
    CCR resolution path, recovery-mode re-execution is idempotent or
    squashed, and speculative writers of one architectural register
    commit in program order. The machine ({!Psb_machine.Vliw_sim}) checks
    these dynamically and raises [Machine_error] when a schedule breaks
    one; this module proves them statically, per region, over the emitted
    {!Psb_machine.Pcode}, so a miscompile is a compile-time diagnostic
    with a program location instead of a simulator abort on whichever
    input happens to reach the broken bundle.

    The analysis is a timing abstraction of the machine's cycle loop: a
    bundle at index [b] issues at cycle [b] (stalls only delay every
    event uniformly, so relative cycle arithmetic is exact), an operation
    of latency [l] writes back at [b + l], and a condition set by a
    [Setc] issued at [s] is visible to issue-time predicate evaluation
    from cycle [s + l] on and to writeback-time evaluation one cycle
    later. Each check compares those derived times against the
    guarantees [Psb_compiler.Depgraph] encodes as edge latencies, so
    every schedule the compiler emits today verifies, and a transform
    that drops a dependence edge is caught the moment it runs.

    [docs/INVARIANTS.md] is the prose catalogue of the invariants this
    module enforces, cross-referenced to the paper and to the tests. *)

open Psb_isa
module Machine_model = Psb_machine.Machine_model
module Pcode = Psb_machine.Pcode

(** {1 Diagnostics} *)

type check =
  | Wellformed
      (** Predicate well-formedness: every condition a predicate or exit
          reads is written by exactly one dominating [Setc], fits the
          CCR, and is resolved where the machine requires it resolved
          (exit evaluation, no write pending when an exit fires). *)
  | Capacity
      (** Buffered-state capacity: worst-case speculative demand —
          unresolved conditions carried at issue, shadow-register
          versions per architectural register, store-buffer occupancy —
          never exceeds the {!Machine_model} limits. *)
  | Recovery
      (** Recovery soundness: every operation that can issue while its
          predicate is still unspecified (and so can be re-executed in
          recovery mode from the RPC) is idempotent-or-squashed — its
          effect is a buffered register write, a buffered store, or a
          buffered fault, never an unbuffered side effect. *)
  | Commit_order
      (** WAW / commit-order consistency: non-disjoint writers of one
          architectural register retire in program order even when the
          earlier writer's value is parked in a shadow register, and
          stores to one address enter the store buffer in program
          order. *)

val check_name : check -> string
(** Stable lower-case identifier ([wellformed], [capacity], [recovery],
    [commit-order]) used in metrics labels and JSON. *)

val pp_check : Format.formatter -> check -> unit

type loc = {
  region : Label.t;
  bundle : int option;  (** bundle index, [None] for region-wide facts *)
  slot : int option;  (** slot index within the bundle *)
}
(** Program location of a violation, precise to the slot when the
    violated invariant is attributable to one. *)

type violation = { check : check; loc : loc; message : string }

val pp_violation : Format.formatter -> violation -> unit
(** One line: [check at region[bundle.slot]: message]. *)

(** {1 Reports} *)

type report = {
  regions : int;  (** regions analysed *)
  bundles : int;
  slots : int;
  conds : int;  (** distinct condition definitions checked *)
  writer_pairs : int;  (** same-register writer pairs analysed *)
  sb_demand : int;  (** worst-case store-buffer occupancy, all regions *)
  violations : violation list;  (** in region/bundle/slot order *)
}

val run : Machine_model.t -> Pcode.t -> report
(** Verify every region of a compiled program against [machine]'s
    capacity limits, its shadow register file included: on a [Single]
    machine a register holds one speculative version, and on an
    [Infinite] one the per-register shadow-capacity check is vacuous and
    skipped. Pure: never raises on malformed input — malformedness {e is}
    the output. *)

val ok : report -> bool
(** [ok r] iff [r.violations = []]. *)

val pp : Format.formatter -> report -> unit
(** Multi-line human-readable report: summary counters, then one line
    per violation. *)

val to_json : report -> Psb_obs.Json.t
(** Schema: [{"ok", "regions", "bundles", "slots", "conds",
    "writer_pairs", "sb_demand", "violations": [{"check", "region",
    "bundle", "slot", "message"}...]}]. [bundle]/[slot] members are
    omitted when the violation is region-wide. *)

val observe_metrics : report -> Psb_obs.Metrics.t -> unit
(** Export pass/violation counters into a metrics registry:
    [verify_passes] / [verify_failures] (one per report),
    [verify_regions] / [verify_slots] (work done), and
    [verify_violations] labelled by [check] — all four check labels are
    always present so a clean run shows explicit zeros. *)
