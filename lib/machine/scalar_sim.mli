(** The scalar baseline (MIPS R3000-like, §4).

    A thin, documented front-end over the reference interpreter: single
    issue, one cycle per instruction, two-cycle loads (one-cycle load-use
    interlock), branches free under the paper's optimistic BTB assumption.
    Its cycle counts play the role of the pixie-measured R3000 cycles. *)

open Psb_isa

val run :
  ?fuel:int ->
  ?record_trace:bool ->
  ?kernel:Interp.kernel ->
  ?decoded:Decoded.t ->
  ?observer:(Instr.op -> int option -> unit) ->
  ?events:Psb_obs.Events.t ->
  ?metrics:Psb_obs.Metrics.t ->
  regs:(Reg.t * int) list ->
  mem:Memory.t ->
  Program.t ->
  Interp.result
(** [metrics] collects per-class dynamic instruction counters
    ([scalar_ops{class=alu|load|...}]), memory-access and cycle totals —
    the same registry the VLIW machine and the compiler report into, so
    one dump covers a whole compile-and-run pipeline.

    [events] records one [Region_enter] per block entered (the scalar
    machine never speculates, so its stream is just the block
    timeline).

    [kernel]/[decoded] pass through to {!Psb_isa.Interp.run}: the
    decoded flat-array engine is the default, and a prebuilt
    {!Psb_isa.Decoded.t} lets repeated runs of one program decode
    once. *)

val cycles :
  regs:(Reg.t * int) list -> mem:Memory.t -> Program.t -> int
(** Convenience: scalar cycle count only (no trace recorded). *)
