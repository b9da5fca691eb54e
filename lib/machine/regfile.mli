(** Predicated register file (Figure 2).

    Each entry holds a sequential value and (at most) one speculative value
    labelled with its predicate, plus flags: V (speculative value valid) and
    E (outstanding speculative exception). The paper's W flag — which of the
    two physical storages currently holds the speculative value, flipped on
    commit to avoid a copy — is an implementation trick; here commit copies
    the shadow into the sequential storage, which is observably identical.

    Two capacity models: [Single] (the paper's cost-reduced design — a
    second same-register speculative write with a different predicate is a
    {e storage conflict} and must stall, footnote 1) and [Infinite]
    (the idealised design used to bound the cost of that choice). The
    file is a set of flat banks indexed by register; the Single model
    keeps its one version per register in banks of its own, so a
    buffered write allocates nothing, and the Infinite model keeps a
    list of versions per register.

    Buffered versions carry their predicates' ternary masks
    ({!Psb_isa.Pred.t}); the per-cycle {!tick} evaluates them against
    the packed {!Ccr} — the software mirror of the paper's per-entry
    predicate hardware — and can skip entries whose masks do not
    intersect the conditions written since the last tick. Reads and
    writes compare predicates by mask as well ({!Psb_isa.Pred.disjoint},
    {!Psb_isa.Pred.equal}). *)

open Psb_isa

type mode = Single | Infinite

type t

val create : ?mode:mode -> ?events:Psb_obs.Events.t -> nregs:int -> unit -> t
(** [events], when given, receives the shadow-state lifecycle:
    [Shadow_write] on every speculative write attempt (conflicts
    included, matching {!spec_writes}), [Shadow_commit]/[Shadow_squash]
    from {!tick} (squash payload [b = 0]) and [Shadow_squash] with
    [b = 1] from {!invalidate_spec}. Absent, nothing is recorded and
    nothing is paid. *)

val nregs : t -> int
val mode : t -> mode

val set_now : t -> int -> unit
(** Stamp subsequent emitted events with this cycle. The owning
    simulator calls it once per cycle (only when events are attached). *)

val read_seq : t -> Reg.t -> int

val values : t -> int array
(** The sequential values, indexed by register: the bank itself, not a
    copy, so the machine's operand fetch reads an unflagged register
    without a call. Only {!write_seq} and {!tick} write it. *)

val read : t -> Reg.t -> shadow:bool -> pred:Pred.t -> int
(** Operand fetch. With [shadow:true] the speculative value is returned if
    valid, falling back to the sequential register otherwise (the §3.5
    operand-fetch fix). [pred] is the reader's predicate, used in the
    [Infinite] model to pick the matching speculative version: the
    newest one not disjoint from it ({!Psb_isa.Pred.disjoint}, a mask
    test). *)

val write_seq : t -> Reg.t -> int -> unit

val write_spec :
  t -> Reg.t -> int -> pred:Pred.t -> fault:Fault.t option ->
  [ `Ok | `Conflict ]
(** Speculative write: buffer the value with its predicate;
    sets V, and E when [fault] is given. [`Conflict] (single-shadow model
    only) when a valid speculative value with a different predicate
    already occupies the entry — the machine must stall the writer. *)

val committing_exceptions :
  t -> (Cond.t -> Pred.cond_value) -> (Reg.t * Fault.t) list
(** Buffered exceptions whose predicate evaluates true under the given
    (tentative) CCR — the detection signal of §3.5. Takes a lookup
    closure, not a CCR, because detection evaluates hypothetical states
    (pending condition writes, the future CCR); returns immediately when
    no version carries a fault. *)

val tick : dirty:int -> t -> Ccr.t -> unit
(** Evaluate every valid speculative entry: true → commit (copy to
    sequential state, clear V), false → squash (clear V). Entries with E
    must have been intercepted by {!committing_exceptions} first; a
    committing entry with E set is an internal error.

    What happened reaches the [events] ring, one event per version in
    register order. In the Single model the tick allocates nothing.

    [dirty] is the bitmask of conditions written since the last tick
    ([-1]: everything dirty), as {!Ccr.take_dirty} returns it. A
    version whose mask does not intersect [dirty] is still [Unspec] — it
    was Unspec when buffered or last examined and none of its conditions
    changed — and is skipped without evaluation. *)

val invalidate_spec : t -> unit
(** Clear all speculative state (on exception detection and region exit).
    Returns at once when nothing is buffered. *)

val has_spec : t -> bool
val conflicts : t -> int
(** Number of storage conflicts reported so far (ablation statistic). *)

val spec_writes : t -> int
val commits : t -> int
val squashes : t -> int

val buffered_faults : t -> int
(** Versions currently carrying a buffered exception (E set). *)

val tick_examined : t -> int
val tick_skipped : t -> int
(** Versions evaluated vs skipped by dirty-mask gating across all ticks. *)

val debug_recount : t -> int * int
(** [(live versions, versions with E)] recounted by full scan — test
    oracle for the incremental counters. *)

val final_state : t -> int Reg.Map.t
(** Sequential values of registers ever written. *)
