(** Cycle-level simulator of the predicating VLIW machine (Figure 1).

    Executes {!Pcode.t} in its lowered form ({!Lowered.t}). Each cycle:
    completed writebacks are applied; pending condition writes are
    checked against the buffered speculative exceptions ({e detection},
    §3.5) before updating the CCR; the register file and store buffer
    evaluate their stored predicates and commit or squash; the store
    buffer drains to the D-cache; and one bundle issues.
    An instruction whose predicate evaluates true executes
    non-speculatively, false is squashed, unspecified executes
    speculatively into the shadow state.

    On detection of a committed speculative exception the machine saves the
    future condition, invalidates all speculative state, rolls back to the
    region top (the implicit RPC) and re-executes in {e recovery mode}:
    instructions whose predicate is specified under the (frozen) current
    condition are squashed, unspecified ones re-execute, and a re-occurring
    exception is handled if its predicate is true under the future
    condition. Recovery ends when the PC reaches the EPC; the future
    condition is then copied into the CCR.

    Region exits reset the CCR and squash any speculative state left
    behind — the closed-region property of §3.3 guarantees such state
    belongs to untaken paths.

    The cycle loop allocates nothing per simulated cycle or per
    operation. In-flight writebacks sit in one queue of flat int banks
    kept sorted by (due cycle, issue order), so the items due this
    cycle are a prefix applied in that order; an item names its
    predicate by the issuing operation's index in the current region,
    and a speculative register write that meets an occupied shadow
    entry is requeued for the next cycle with its issue order kept, and
    stalls issue. One cycle's condition writes sit in a preallocated
    array. An issue reports a fault out of band, in the machine state,
    rather than in a result box. What still allocates is one record per
    store-buffer entry (and per buffered version in the [Infinite]
    shadow model). *)

open Psb_isa

type stats = {
  dyn_bundles : int;
  dyn_ops : int;  (** executed operation slots (squashed ones excluded) *)
  squashed_ops : int;
  spec_ops : int;  (** ops issued with an unspecified predicate *)
  commits : int;  (** speculative register/store commits *)
  squashes : int;
  recoveries : int;  (** recovery-mode episodes *)
  recovery_cycles : int;
  shadow_conflicts : int;
  conflict_stall_cycles : int;
  sb_max_occupancy : int;
  sb_stall_cycles : int;  (** cycles issue stalled on a full store buffer *)
  region_transitions : int;
}

(** {2 Cycle accounting}

    Every simulated cycle is attributed to exactly one category, so the
    breakdown answers "where did the cycles go" and always sums to
    {!result.cycles} (a property the test suite enforces for every
    workload × model pair). A cycle that both stalls and sits in recovery
    mode is charged to the stall — the priority is the order of the
    record fields below. *)

type breakdown = {
  bd_useful : int;
      (** normal-mode issue cycles in which at least one operation
          executed or an exit fired *)
  bd_squashed : int;
      (** normal-mode issue cycles whose every operation slot had a false
          predicate — fetched but fully wasted work *)
  bd_shadow_stall : int;  (** issue held by a shadow-storage conflict *)
  bd_sb_stall : int;  (** issue held by a full store buffer *)
  bd_recovery : int;
      (** recovery-mode re-execution (including the detection cycle) *)
  bd_transition : int;
      (** region-transition cost: the interlock that drains in-flight
          writebacks plus the configured redirect penalty *)
}

val breakdown_total : breakdown -> int
val breakdown_fields : breakdown -> (string * int) list
(** Category name → cycles, in priority order (for serialisation). *)

val pp_breakdown : Format.formatter -> breakdown -> unit
(** Table with per-category percentages. *)

type result = {
  outcome : Interp.outcome;
  output : int list;
  cycles : int;
  regs : int Reg.Map.t;
  faults_handled : int;
  stats : stats;
  breakdown : breakdown;
}

exception Machine_error of string
(** Raised when executed code violates a machine invariant the scheduler
    must uphold (commit-dependence violation, side effect with an
    unspecified predicate, running off a region end, Setc bundled with an
    exit, ...). Indicates a compiler bug, not a program fault. *)

val run :
  ?fuel:int ->
  ?events:Psb_obs.Events.t ->
  ?metrics:Psb_obs.Metrics.t ->
  regs:(Reg.t * int) list ->
  mem:Memory.t ->
  Lowered.t ->
  result
(** Run lowered code on the machine it was lowered for: the cycle loop
    walks the {!Lowered.t} and reads its resources, capacities and
    shadow register file ([shadow]) from [lowered.machine];
    [lowered.source] is the pcode it says. [fuel] bounds the cycle count
    (default 60M). [mem] is mutated.

    [events] records the machine's observable timeline (compare Table 1)
    into a structured ring buffer ([Psb_obs.Events]), each event stamped
    with the cycle it occurs in: region enter/exit (region names
    interned); every issued bundle ([Issue], in normal and recovery mode)
    and every executed operation slot ([Op_issue], resolved against the
    pcode by bundle and slot); stalls; predicate resolutions
    ([Pred_true]/[Pred_false] per applied condition write); exception
    detection and recovery end ([Recovery_start]/[Recovery_end]);
    shadow-register and store-buffer lifecycles (via {!Regfile} and
    {!Store_buffer}); store-buffer occupancy changes; and
    [Fault_deferred]/[Fault_raised]. [Vliw_trace] renders the ring as
    text and as a trace document. Absent, the cycle loop allocates
    nothing on its behalf and tests one pointer per emission site;
    attached, it still allocates nothing (both enforced by minor-words
    tests).

    Per-cycle predicate evaluation uses the compiled bitmask comparators
    ({!Ccr.evalc}), with the commit/squash tick gated by the CCR's dirty
    mask ({!Ccr.take_dirty}).

    Code is lowered once, before the run ({!Lowered.compile}; the
    compile cache keeps the lowered form of every compile). Whether a
    form says what its source says is {!Lowered.check}'s question; the
    run trusts it.

    [metrics] collects, under the [vliw_] prefix: a store-buffer
    occupancy histogram sampled every cycle ([vliw_sb_occupancy]), an
    executed-ops-per-bundle histogram ([vliw_bundle_ops]), final
    counters for cycles, operations and the cycle-accounting categories
    ([vliw_cycles{category=...}]), plus predicate-kernel counters:
    [vliw_tick_entries{gate=examined|skipped}] (buffered entries
    evaluated vs skipped by dirty-mask gating) and
    [vliw_pred_evals{kind=mask}] (bitmask evaluations). *)
