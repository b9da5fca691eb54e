(** Regions lowered to flat threaded code: the structure-of-arrays form
    the machine's default execution kernel walks every cycle.

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
    - the {!Psb_isa.Pred.compiled} mask per slot (shared with the tree
      form — the same physical comparator the predicate kernel
      evaluates, and what shadow reads and store-buffer forwarding
      compare);
    - the issue latency from {!Machine_model.latency}, resolved at
      lowering time;
    - exit targets preresolved to region {e indices}, so a region
      transition is an array read instead of {!Pcode.find_region}'s
      list search.

    The lowering is purely representational: {!Vliw_sim} running the
    lowered form must be cycle- and event-identical to the tree
    reference (enforced by the differential suite and the fuzzer; see
    [Vliw_sim.exec_kernel]). [op_src] keeps the originating {!Pcode.pinstr} per
    operation for event emission and diagnostics. *)

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
  op_cpred : Pred.compiled array;  (** compiled predicate per operation *)
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
  op_src : Pcode.pinstr array;
      (** originating slot, for event emission and diagnostics *)
  ex_cpred : Pred.compiled array;
  ex_target : int array;
      (** exit target as an index into {!t.regions}; [-1] for [Stop] *)
  ex_tgt : Pcode.exit_target array;  (** source form, for events *)
}

type t = {
  source : Pcode.t;
  machine : Machine_model.t;
      (** the machine whose latencies are baked into [op_lat]; a lowered
          form may only run on this model *)
  regions : region array;  (** in [source.regions] order *)
  entry : int;  (** index of the entry region *)
  nregs : int;  (** [count_regs source] *)
  max_bundle_ops : int;
      (** widest bundle's operation count — sizes the per-cycle decision
          scratch buffer *)
}

val compile : machine:Machine_model.t -> Pcode.t -> t
(** Lower every region once. Pure; the result shares the [Pcode.t]'s
    compiled predicates and slots (no predicate recompilation). Latency
    preresolution makes the result model-specific: running it on a
    machine other than [machine] is rejected by {!Vliw_sim.run}.
    @raise Invalid_argument if an exit names an undefined region (the
    same condition {!Pcode.make} validates). *)

val count_regs : Pcode.t -> int
(** The register-file size a program's code requires: one past the
    highest register any operation defines or uses (at least 1). Both
    execution kernels of {!Vliw_sim} size their register file with it. *)

val num_ops : t -> int
(** Total lowered operation slots (equals the [Op] slots of [source]). *)

val num_exits : t -> int
(** Total lowered exit slots (equals the [Exit] slots of [source]). *)
