(** Predicated VLIW code: the compiler's output and the machine's input.

    A program is a set of {e regions}; each region is a straight line of
    VLIW bundles (one bundle issues per cycle). Control transfer inside a
    region has been eliminated by predication; leaving a region happens
    through predicated {e exit} slots, which fire when their predicate
    evaluates true against the CCR. Condition registers are region-local:
    the CCR is reset on every region transition (§3.3).

    This tree-shaped form (bundles as slot lists, operands as variants)
    is the canonical interchange format: the compiler emits it
    ([Psb_compiler.Sched]), the static verifier analyses it
    ([Psb_verify.Verify]), and the text format round-trips it
    ([Pcode_text], [.ppsb]). The machine does not walk it: it executes
    a flat structure-of-arrays lowering of it, built once per compile,
    which {!Lowered.check} raises back to this form — see {!Lowered}. *)

open Psb_isa

type pinstr = {
  pred : Pred.t;
  cpred : Pred.compiled;
      (** [pred] compiled to mask form, once, at slot construction — what
          the machine's per-cycle paths evaluate *)
  op : Instr.op;
  shadow_srcs : Reg.Set.t;
      (** source registers the instruction fetches from the speculative
          state ([.s] suffix in the paper); the hardware falls back to the
          sequential register when the shadow entry is invalid (§3.5) *)
}

type exit_target = To_region of Label.t | Stop

type slot =
  | Op of pinstr
  | Exit of { pred : Pred.t; cpred : Pred.compiled; target : exit_target }

type bundle = slot list

type region = {
  name : Label.t;
  code : bundle array;
  source_blocks : Label.t list;
      (** scalar blocks this region was built from (diagnostics) *)
}

type t = { entry : Label.t; regions : region list }

val op : ?shadow_srcs:Reg.Set.t -> Pred.t -> Instr.op -> slot
(** Operation slot under a predicate; compiles the predicate to mask
    form once, here. [shadow_srcs] (default empty) marks which source
    registers read the speculative version. *)

val exit_to : Pred.t -> Label.t -> slot
(** Predicated region exit transferring control to the named region. *)

val exit_stop : Pred.t -> slot
(** Predicated exit that halts the program. *)

val make : entry:Label.t -> region list -> t
(** Validates region-name uniqueness, entry and exit-target resolution,
    and that the final bundle of each region contains an exit slot (the
    exit predicates together must be exhaustive; the machine checks this
    dynamically). @raise Invalid_argument otherwise. *)

val find_region : t -> Label.t -> region
(** Region by name. @raise Not_found on an unknown label (cannot happen
    for exit targets of a {!make}-validated program). *)

val bundle_op : region -> bundle:int -> slot:int -> pinstr
(** The [slot]th operation of bundle [bundle], counting operations only
    (exits excluded) — how the machine's event ring names an issued
    operation. @raise Invalid_argument when the bundle holds fewer
    operations. *)

val num_regions : t -> int

val num_slots : t -> int
(** Total static slots — operations {e and} exits — across all regions;
    the code-growth metric, and exactly the slot population the lowering
    pass flattens ([Lowered.num_ops] + [Lowered.num_exits]). *)

val num_bundles : t -> int
(** Total bundles (issue cycles of straight-line code) across all
    regions. *)

val slot_pred : slot -> Pred.t
(** The predicate of either slot form. *)

val slot_cpred : slot -> Pred.compiled
(** The compiled mask of either slot form. *)

val check_resources : Machine_model.t -> t -> (unit, string) result
(** Every bundle must fit the machine's issue width and function units,
    and every predicate must fit the CCR. *)

val pp : Format.formatter -> t -> unit
(** Full listing in [.ppsb] syntax (parseable by [Pcode_text]); also the
    structural-identity witness the property tests compare compiles
    with. *)

val pp_region : Format.formatter -> region -> unit
(** One region in the same syntax. *)
