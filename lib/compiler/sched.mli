(** Resource-constrained list scheduler over a unit's dependence graph,
    plus emission of predicated VLIW code for the executable models.

    Priorities are critical-path heights. Per-cycle resources follow
    {!Psb_machine.Machine_model}: issue width, ALUs, branch units, load and
    store units. Condition-set instructions take an ALU slot in predicated
    models and a branch slot otherwise (they {e are} the branches there);
    predicated exits take branch slots; in non-predicated models an exit
    derived from a conditional branch is free (its branch already paid).
    The machine's structural rule that a [Setc] may not share a bundle with
    an exit is enforced here for executable models.

    An instruction of a [Buffered] class may issue while at most
    [max_spec_conds] of its predicate's conditions are still unresolved
    (Figure 8's sweep).

    The scheduler is a ready list over int arrays. Each node keeps the
    count of its in-edges whose source is still unplaced and the
    earliest cycle its placed sources allow; placing a node releases its
    out-edges. The priority order (greater height first, then smaller
    node index) is sorted once. Each cycle starts from the machine's
    unit capacities and a mask of the conditions resolved before it
    (their [Setc] issued in an earlier cycle). Within a cycle, each pass
    first takes a snapshot of the nodes ready when it starts, in
    priority order, and then places them; a zero-latency successor made
    ready by a placement waits for the next pass, and passes repeat
    until one places nothing. A unit still unplaced after 100,000
    cycles fails with "no progress". *)

module Machine_model = Psb_machine.Machine_model
module Pcode = Psb_machine.Pcode

type t = {
  unit_ : Runit.t;
  graph : Depgraph.t;
  issue : int array;  (** per node index (instr uids then exits) *)
  length : int;  (** schedule length: last exit bundle + 1 *)
}

val schedule :
  Model.t -> Machine_model.t -> single_shadow:bool -> Runit.t -> t

val exit_cycle : t -> int -> int
(** Issue cycle of exit [xid]. *)

val check : t -> Model.t -> Machine_model.t -> (unit, string) result
(** Independent validator, recomputed from the [issue] array alone:
    every edge satisfied, every node placed, per-cycle slots and unit
    classes within the machine's, Setc/exit separation, exits after
    their predicates. *)

val emit : t -> Pcode.region
(** Predicated code for the unit (executable models only). *)

val pp : Format.formatter -> t -> unit
