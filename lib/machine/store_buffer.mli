(** Predicated store buffer (§3.2).

    A FIFO in front of the D-cache. Both speculative and non-speculative
    stores are appended in issue order. Entries carry W (speculative), V
    (valid) and E (outstanding speculative exception) flags and a
    predicate with its own evaluation hardware: true → commit (clear W),
    false → squash (clear V). Head entries that are valid and
    non-speculative drain to the D-cache.

    The FIFO is a growable ring of entry records: an append allocates
    the one record, appends are O(1) amortised, and the per-cycle {!tick},
    {!forward}, {!drain} and {!invalidate_spec} walk the ring evaluating
    predicate masks ({!Psb_isa.Pred.t}) against the packed {!Ccr} without
    allocating. *)

open Psb_isa

type t

val create : ?events:Psb_obs.Events.t -> unit -> t
(** [events], when given, receives the buffer lifecycle: [Sb_append] on
    every store (payload [b = 1] when speculative), [Sb_commit] and
    [Sb_squash] ([b = 0]) from {!tick}, [Sb_forward] on forwarding hits,
    [Sb_flush] per D-cache write from {!drain}, and [Sb_squash] with
    [b = 1] from {!invalidate_spec}. Absent, nothing is recorded and
    nothing is paid. *)

val set_now : t -> int -> unit
(** Stamp subsequent emitted events with this cycle. The owning
    simulator calls it once per cycle (only when events are attached). *)

val append :
  t -> addr:int -> value:int -> pred:Pred.t -> spec:bool ->
  fault:Fault.t option -> unit

val tick : dirty:int -> t -> Ccr.t -> unit
(** Evaluate speculative entries' predicates; commit or squash, in
    buffer order, each reaching the [events] ring. The tick allocates
    nothing.

    [dirty] is the bitmask of conditions written since the last tick
    ([-1]: everything dirty), as {!Ccr.take_dirty} returns it; an
    entry already examined once whose mask does not intersect [dirty] is
    still [Unspec] and is skipped without evaluation. A fresh entry is
    always examined on its first tick — unlike register versions, a
    store may be appended with an already-decided predicate. *)

val committing_exceptions :
  t -> (Cond.t -> Pred.cond_value) -> Fault.t list
(** Buffered store exceptions whose predicate evaluates true under the
    given (tentative) CCR. Takes a lookup closure because detection
    evaluates hypothetical states; returns immediately when no live
    speculative entry carries a fault. *)

val drain : t -> max:int -> Memory.t -> int
(** Write up to [max] head entries that are valid and non-speculative to
    memory; squashed head entries are discarded for free. Stops at the
    first still-speculative entry. Returns the number of D-cache writes.
    @raise Memory.Fault if a drained store faults (a non-speculative
    exception; the machine handles it like the scalar machine would). *)

val drain_all : t -> Memory.t -> unit
(** Drain every non-speculative entry (used when the machine halts).
    @raise Invalid_argument if speculative entries remain. *)

val forward :
  t -> addr:int -> load_pred:Pred.t -> Ccr.t ->
  [ `Hit | `Miss | `Commit_dependence ]
(** Store-to-load forwarding. Searches youngest → oldest among valid
    entries with the same address: speculative entries on mutually
    exclusive paths (disjoint predicates) or already-squashed entries are
    skipped; a committed entry forwards its value whatever its predicate,
    which may name conditions of a region since left; an entry the load
    is control-dependent on (its predicate implied by the load's, or
    already true) forwards its value. An unresolved entry that may or
    may not be on the load's path is a {e commit dependence}
    (§4.2.2) — the scheduler must have prevented it, so the machine
    reports it as an error. Predicates are compared by mask
    ({!Psb_isa.Pred.disjoint}, {!Psb_isa.Pred.implies}).

    A [`Hit] leaves the forwarded value and the entry's buffered
    exception in {!forwarded_value} and {!forwarded_fault}, so a search
    allocates nothing. *)

val forwarded_value : t -> int
val forwarded_fault : t -> Fault.t option
(** The value and buffered exception of the entry the last [`Hit] read. *)

val invalidate_spec : t -> unit
(** Squash every speculative entry and drop the squashed ones from the
    FIFO. Returns at once when every entry is valid and committed. *)

val has_spec : t -> bool

val length : t -> int
(** Stored entries, including squashed ones not yet discarded by drain —
    what occupies the hardware FIFO. *)

val max_occupancy : t -> int
val spec_appends : t -> int
val commits : t -> int
val squashes : t -> int

val buffered_faults : t -> int
(** Live speculative entries currently carrying a buffered exception. *)

val tick_examined : t -> int
val tick_skipped : t -> int
(** Entries evaluated vs skipped by dirty-mask gating across all ticks. *)

val debug_recount : t -> int * int * int
(** [(length, live speculative, faulting speculative)] recounted by full
    scan — test oracle for the incremental counters. *)
