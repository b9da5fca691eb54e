(** Predecoded flat program form for the scalar machines.

    What {!Lowered} ({i lib/machine}) is to predicated VLIW regions,
    this pass is to plain {!Program}s: a one-time [of_program] walk
    compiles the block list into structure-of-arrays form — dense
    int-tagged opcodes, preresolved operand register indices and
    immediates, branch targets as block indices, CSR-style per-block
    instruction bounds, and per-instruction load/store/may-fault flags —
    so the interpreter ({!Interp}) and the dispatch/complete loops of
    the ROB backend are array walks with no variant matching, no
    per-instruction list allocation, and no [Label] hashing on the hot
    path.

    The decoded form is a {e view}: it is only valid for the exact
    program value it was built from ([source] is compared physically,
    mirroring the stale-lowered-form rejection in the VLIW machine).
    {!check} raises it back to blocks and compares them with [source]. *)

(** {2 Opcode class tags}

    Values of the [kind] array. The order matches the ROB backend's
    retirement class table, so per-class counters index directly. *)

val kalu : int
val kmov : int
val kload : int
val kstore : int
val kcmp : int
val ksetc : int
val kout : int
val knop : int

val kbranch : int
(** Not produced by [of_program] (terminators live in the [term_*]
    arrays); reserved for backends that tag branch entries in the same
    class space. *)

val num_kinds : int

val kind_names : string array
(** Class name by tag (["alu"], ["mov"], ..., ["branch"]): the [class]
    label of the machines' per-class counters. *)

(** {2 Terminator tags} — values of the [term_kind] array. *)

val thalt : int
val tjmp : int
val tbr : int

type t = {
  source : Program.t;  (** the exact program this form was decoded from *)
  entry : int;  (** block index of the program entry *)
  nblocks : int;
  index : (string, int) Hashtbl.t;  (** label name → block index *)
  labels : Label.t array;  (** block index → label (trace/event names) *)
  op_bounds : int array;
      (** CSR bounds: block [b]'s operations are the flat indices
          [op_bounds.(b) .. op_bounds.(b+1) - 1]; length [nblocks + 1] *)
  kind : int array;  (** opcode class tag, one of the [k*] values above *)
  dst : int array;
      (** destination register index ([kalu]/[kmov]/[kload]/[kcmp]),
          condition index ([ksetc]), [-1] otherwise *)
  aux : int array;  (** memory offset for loads/stores, [0] otherwise *)
  alu : Opcode.alu array;  (** valid where [kind] is [kalu] *)
  cmp : Opcode.cmp array;  (** valid where [kind] is [kcmp]/[ksetc] *)
  s1_reg : int array;
      (** first-source register index, [-1] when the operand is an
          immediate (then [s1_imm] holds it). First source = [a] for
          ALU/compares, [src] for mov/out, [base] for loads/stores. *)
  s1_imm : int array;
  s2_reg : int array;
      (** second source: [b] for ALU/compares, the stored [src] register
          for stores; [-1] where absent or immediate *)
  s2_imm : int array;
  is_load : bool array;
  is_store : bool array;
  may_fault : bool array;
      (** can raise at runtime: memory operations and unsafe ALU ops *)
  ops : Instr.op array;
      (** the original operations, shared, per flat index (the limit
          study's latency table reads them) *)
  term_kind : int array;  (** per block: [thalt] / [tjmp] / [tbr] *)
  term_src : int array;  (** branch condition register index, [-1] otherwise *)
  term_t : int array;
      (** jump target / branch taken target as a block index; [-1] for
          halt *)
  term_f : int array;  (** branch fall-through target block index *)
  nregs : int;  (** [max 1 (Program.max_reg + 1)], array sizing hint *)
  nconds : int;  (** [max 1 (Program.max_cond + 1)] *)
}

val of_program : Program.t -> t
(** Decode once; O(program size). *)

val num_ops : t -> int
val block_ops : t -> int -> int

val block_index : t -> Label.t -> int
(** Block index of a label, [-1] if unknown (hash lookup, no scan). *)

val check_source : t -> Program.t -> unit
(** @raise Invalid_argument if the form was not decoded from exactly
    this program value (physical equality, like the stale-lowered-form
    check in the VLIW machine). *)

val check : t -> (unit, string) result
(** The round trip: raise every block back to its label, its operations
    (from [kind], [dst], [aux], [alu], [cmp] and the [s1_*]/[s2_*]
    operands), its [ops] entries, its load/store/may-fault flags and its
    terminator, and compare them with [source]. It also checks the table
    lengths, [nblocks], [index], that [op_bounds] is closed and matches
    each block's length, [entry], [nregs] and [nconds], and that no op
    carries an operand register its operation does not have (the
    interpreter reads both operand registers of every op for the
    load-use interlock). The error names the first mismatch's place,
    e.g. ["block body op 0: decoded store r1+0 = r1, source store r1+0 = r3"].
    It shares no code with {!of_program}. *)
