(** Scheduling units: regions and traces (§3.3).

    A unit is built from a header block by growing along CFG edges that
    static branch prediction considers beneficial. The result is an acyclic
    set of {e block copies}, each carrying the ANDed-predicate of the paths
    that reach it. Join blocks whose incoming path predicates merge to a
    single conjunction (complementary literals cancel — the equivalent-block
    case of footnote 2) get one copy; others are duplicated per merged
    predicate, reproducing the paper's join-block duplication. Region
    growth stops at loop heads, at other units' headers, at the CCR budget
    ([K] conditions per region) and at the duplication cap.

    Each in-unit conditional branch is converted to a condition-set
    instruction [ck := (src <> 0)] on a fresh CCR slot; the branch itself
    disappears (its directions become in-unit edges or predicated exits).
    A trace is the degenerate case: growth follows only the predicted
    direction, so the unit is a single path and every block has one copy. *)

open Psb_isa
module Cfg = Psb_cfg.Cfg
module Branch_predict = Psb_cfg.Branch_predict

type dir = Dtrue | Dfalse | Djmp

type uinstr = {
  uid : int;
  op : Instr.op;  (** [Setc] for converted branches *)
  pred : Pred.t;  (** emitted predicate ([alw] for [Setc]) *)
  dep_pred : Pred.t;  (** home-block predicate, for dependence analysis *)
  seq : int;  (** linearized original order *)
}

type uexit = {
  xid : int;
  pred : Pred.t;  (** firing predicate *)
  target : Label.t option;  (** [None] = program halt *)
  from_branch : Cond.t option;
      (** the condition of the branch this exit came from ([None] for
          fall-through jumps/halts) — in non-predicated models the branch
          instruction itself plays the role of the exit *)
  seq : int;
}

type copy = { cid : int; label : Label.t; pred : Pred.t }

type step = Goto of int | Take_exit of int

type t = {
  header : Label.t;
  instrs : uinstr array;
  exits : uexit array;
  copies : copy array;  (** copy 0 is the header *)
  steps : int array;
      (** where control goes from copy [cid] in direction [d], flat at
          [3 * cid + dir_index d]: the next copy's id ([Goto], [>= 0]), an
          exit as [lnot xid] ([Take_exit], [< 0]), or {!no_step} for a
          direction the copy's block does not have. See {!step}. *)
  setc_of_cond : int array;
      (** uid of each condition's [Setc], indexed by {!Psb_isa.Cond.index}
          (a unit numbers its conditions [0 .. nconds - 1]) *)
  nconds : int;
}

type params = {
  scope : Model.scope;
  max_conds : int;  (** CCR size: conditions available per unit *)
  max_blocks : int;
  max_copies_per_block : int;
  grow_threshold : float;  (** minimum edge probability for region growth *)
  fuse_compare : bool;
      (** predicated models: when the branched-on register is produced by
          a [Cmp] in the same block, the synthesized [Setc] performs that
          comparison directly (the paper's condition-set instructions,
          e.g. [c0 = r3 < r4]), shortening the condition path by a cycle *)
  avoid_commit_deps : bool;
      (** §4.2.2's refinement: keep a join block split (one copy per
          incoming path) when merging its predicates would make it read a
          value produced under an unresolved predicate — a commit
          dependence. Costs duplication, buys scheduling freedom. *)
}

val dir_index : dir -> int
(** [Dtrue] 0, [Dfalse] 1, [Djmp] 2: a direction's offset in [steps]. *)

val no_step : int

val step : t -> int -> dir -> step option
(** [step t cid d]: [steps] decoded; [None] where there is no step. *)

val default_params :
  scope:Model.scope ->
  max_conds:int ->
  ?fuse_compare:bool ->
  ?avoid_commit_deps:bool ->
  unit ->
  params

val build :
  params ->
  Cfg.t ->
  Branch_predict.t ->
  header:Label.t ->
  avoid:Label.Set.t ->
  t
(** [avoid] is the set of labels that must not be swallowed (headers of
    other units, loop heads). The unit's exits may target labels in
    [avoid] or any label outside the unit.
    @raise Invalid_argument if the profile was tabulated over the CFG of
    another program value ({!Psb_cfg.Branch_predict.cfg}; programs
    compare physically). *)

val exit_targets : t -> Label.t list
(** Labels this unit can exit to (deduplicated). *)

val build_all :
  params ->
  Cfg.t ->
  Branch_predict.t ->
  loop_heads:Label.t list ->
  entry:Label.t ->
  t Label.Map.t
(** Cover the program: build a unit for the entry and then for every exit
    target, until closed. Loop heads bound unit growth (speculative state
    is closed within one loop body). Formation runs over the CFG's block
    indices ({!Psb_cfg.Cfg.index}): candidates, the avoid set, in-unit
    edges, DFS marks and pending join edges are arrays, and the profile
    is read from its tables.
    @raise Invalid_argument as {!build}. *)

val setc_uid : t -> Cond.t -> int
val pp : Format.formatter -> t -> unit
