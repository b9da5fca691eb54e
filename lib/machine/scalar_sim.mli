(** The scalar baseline (MIPS R3000-like, §4).

    A thin, documented front-end over the reference interpreter: single
    issue, one cycle per instruction, two-cycle loads (one-cycle load-use
    interlock), branches free under the paper's optimistic BTB assumption.
    Its cycle counts play the role of the pixie-measured R3000 cycles. *)

open Psb_isa

val run :
  ?record_trace:bool ->
  ?events:Psb_obs.Events.t ->
  ?metrics:Psb_obs.Metrics.t ->
  regs:(Reg.t * int) list ->
  mem:Memory.t ->
  Program.t ->
  Interp.result
(** [metrics] collects per-class dynamic instruction counters
    ([scalar_ops{class=alu|load|...}]), memory-access and cycle totals —
    the same registry the VLIW machine and the compiler report into, so
    one dump covers a whole compile-and-run pipeline. The class and
    memory-access counts are each block's class counts times the block
    trace (the last block of a fatal run counts the ops up to the
    faulting one), so the run records its trace; the returned
    [block_trace] still follows [record_trace]. A class that never ran
    gets no counter.

    [events] records one [Region_enter] per block entered (the scalar
    machine never speculates, so its stream is just the block
    timeline).

    Everything else is {!Psb_isa.Interp.run} with its defaults, so
    without [metrics] and [events] the result is exactly the
    interpreter's. *)
