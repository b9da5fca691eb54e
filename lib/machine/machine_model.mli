(** Machine configurations.

    The paper's base VLIW machine (§4): 4 ALUs, 4 branch units, 2 load
    units, 1 store unit, up to 4 instructions issued per cycle, CCR with 4
    entries, load latency 2 cycles, all other latencies 1.

    "Full-issue" machines (Figure 8) duplicate every resource to the issue
    width. *)

open Psb_isa

type t = {
  issue_width : int;
  alu_units : int;
  branch_units : int;  (** jump/exit slots per cycle *)
  load_units : int;
  store_units : int;
  ccr_size : int;  (** number of branch conditions, K *)
  load_latency : int;
  int_latency : int;
  max_spec_conds : int;
      (** how many unresolved branch conditions an instruction may be
          speculated past (Figure 8 sweeps 1/2/4/8) *)
  transition_penalty : int;
      (** extra cycles charged on a region transition; 0 under the paper's
          optimistic BTB assumption, 1 models a BTB-miss redirect (the
          paper notes the optimism is worth "a few percent") *)
  sb_capacity : int;
      (** store-buffer entries; a bundle carrying a store stalls while the
          FIFO is full *)
  dcache_ports : int;
      (** D-cache write ports: store-buffer entries drained per cycle *)
  rob_size : int;
      (** reorder-buffer entries of the rival out-of-order backend
          ({!Rob_sim}); bounds how far its fetch may run ahead of commit:
          32 on the base machine, 8 on the scalar reference, [8 * width]
          on full-issue machines *)
  shadow : Regfile.mode;
      (** the shadow register file (§3.2, footnote 1): [Single], the
          paper's one speculative version per register, on every machine
          below; [Infinite], unbounded versions, for the shadow ablation.
          The scheduler serialises exclusive writers of a register only
          under [Single], the verifier checks shadow capacity against it,
          and {!Vliw_sim} builds its register file with it. *)
}

val base : t
(** The paper's base 4-issue machine. *)

val scalar : t
(** Single-issue reference (R3000-like). *)

val full_issue : width:int -> max_spec_conds:int -> t
(** Fully duplicated resources at the given issue width (Figure 8). *)

val shadow_capacity : t -> int
(** Speculative (shadow) versions storable per architectural register:
    1 under [Single], unbounded ([max_int]) under [Infinite]. *)

val latency : t -> Instr.op -> int
(** Issue-to-writeback distance in cycles for one operation:
    [load_latency] for loads, [int_latency] for everything else. This is
    the single source of latency truth — the scheduler, the cycle
    estimator, the machine simulator and the region-lowering pass
    ([Lowered], which precomputes it per flat slot) all call it. *)

(** The function-unit class an operation occupies for one cycle at
    issue. [Branch_unit] serves region-exit slots; [Nop]s and condition
    writes ([Setc]) occupy ALU slots like any other computation. *)
type unit_class = Alu_unit | Branch_unit | Load_unit | Store_unit

val unit_of_op : Instr.op -> unit_class
(** Classify one operation. Total — every [Instr.op] maps to exactly one
    class, so resource checks can fold over a bundle without a default
    case. *)

val units_available : t -> unit_class -> int
(** How many units of a class the machine issues to per cycle
    ([alu_units], [branch_units], [load_units], [store_units]); the
    static budget [Pcode.check_resources] and the scheduler enforce per
    bundle. *)

val pp : Format.formatter -> t -> unit
(** One-line summary of the configuration (issue width, unit counts,
    CCR size, latencies) for diagnostics and experiment headers. *)
