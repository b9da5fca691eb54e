(** Regions lowered to flat threaded code: the structure-of-arrays form
    the machine walks every cycle.

    {!Pcode.t} is the right shape for the compiler — slots are variant
    trees, operands are symbolic, bundles are lists — but the simulator
    pays for that shape on every simulated cycle: list traversals,
    variant matches, shadow-set membership tests and latency lookups per
    issued operation. [Lowered.compile] pays those costs {e once} per
    region, producing parallel flat arrays indexed by a dense operation
    number:

    - per-bundle index ranges ([op_bounds]/[ex_bounds], CSR-style) so a
      bundle's operations and exits are contiguous array slices;
    - a dense {!kind} tag per operation (constant constructors, so the
      per-cycle dispatch compiles to a jump table);
    - preresolved operand descriptors: register index or immediate, with
      the shadow-source membership test ([.s] sourcing, §3.5) folded
      into a per-operand flag;
    - the slot's {!Psb_isa.Pred.t} (shared with the slot — the ternary
      mask the predicate kernel evaluates, and what shadow reads and
      store-buffer forwarding compare);
    - the issue latency from {!Machine_model.latency}, resolved at
      lowering time;
    - exit targets preresolved to region {e indices}, so a region
      transition is an array read instead of {!Pcode.find_region}'s
      list search.

    The lowering is purely representational. {!check} is its inverse:
    it raises every row back to a slot and compares it with the source,
    so what {!Vliw_sim} walks is exactly the {!Pcode.t} it was given
    (the fuzzer checks every lowering it runs). *)

open Psb_isa

type kind = Knop | Kalu | Kmov | Kload | Kcmp | Kstore | Ksetc | Kout
(** Dense operation tag. [Knop] pads unused table entries. *)

type region = {
  source : Pcode.region;  (** the region this was lowered from *)
  nbundles : int;
  op_bounds : int array;
      (** length [nbundles + 1]; bundle [b]'s operations occupy indices
          [op_bounds.(b) .. op_bounds.(b+1) - 1], in slot order *)
  ex_bounds : int array;  (** same, for the exit slots *)
  has_store : bool array;
      (** per bundle: whether any slot is a store (the store-buffer
          structural-hazard test, precomputed) *)
  op_kind : kind array;
  op_pred : Pred.t array;  (** predicate per operation *)
  op_lat : int array;  (** {!Machine_model.latency}, preresolved *)
  op_dst : int array;  (** destination register index; [-1] if none *)
  op_aux : int array;
      (** load/store address offset, or the condition index a [Setc]
          writes *)
  op_alu : Opcode.alu array;  (** ALU opcode ([Kalu] rows only) *)
  op_cmp : Opcode.cmp array;  (** compare opcode ([Kcmp]/[Ksetc] rows) *)
  op_s1_reg : int array;
      (** first source (ALU/Mov/Cmp/Setc operand [a]/[src], load/store
          base): register index, or [-1] for an immediate *)
  op_s1_imm : int array;  (** immediate value when [op_s1_reg] is [-1] *)
  op_s1_sh : bool array;  (** read the shadow version (speculative source) *)
  op_s2_reg : int array;
      (** second source (operand [b], store data register) *)
  op_s2_imm : int array;
  op_s2_sh : bool array;
  ex_pred : Pred.t array;
  ex_target : int array;
      (** exit target as an index into {!t.regions}; [-1] for [Stop] *)
}

type t = {
  source : Pcode.t;
  machine : Machine_model.t;
      (** the machine whose latencies are baked into [op_lat]; a lowered
          form may only run on this model *)
  regions : region array;  (** in [source.regions] order *)
  entry : int;  (** index of the entry region *)
  nregs : int;
      (** the register-file size the code requires: one past the highest
          register any operation defines or uses (at least 1) *)
  max_bundle_ops : int;
      (** widest bundle's operation count — sizes the per-cycle decision
          scratch buffer *)
}

val compile : machine:Machine_model.t -> Pcode.t -> t
(** Lower every region once. Pure; the result shares the [Pcode.t]'s
    predicates. Latency
    preresolution makes the result model-specific: running it on a
    machine other than [machine] is rejected by {!Vliw_sim.run}.
    @raise Invalid_argument if an exit names an undefined region (the
    same condition {!Pcode.make} validates). *)

val num_ops : t -> int
(** Total lowered operation slots (equals the [Op] slots of [source]). *)

val num_exits : t -> int
(** Total lowered exit slots (equals the [Exit] slots of [source]). *)

val check : t -> (unit, string) result
(** The round trip: raise every lowered region back to slot lists and
    compare them with [source] and with {!Machine_model.latency}. It
    checks region order and identity, [entry], [nbundles], that
    [op_bounds]/[ex_bounds] are monotone and closed, and per bundle, in
    slot order: the operation each row raises to, its shadow flags
    (against the slot's [shadow_srcs]), predicate and latency, that no
    row reads an operand its operation does not have, [has_store], and
    each exit's predicate and target index; then [max_bundle_ops] and
    [nregs]. The error names the first mismatch's place, e.g.
    ["region head bundle 2 op slot 1: latency 3, machine says 2"]. It
    shares no code with {!compile}. *)
