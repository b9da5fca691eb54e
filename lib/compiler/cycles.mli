(** Trace-driven cycle accounting.

    Replays a dynamic block trace (recorded by the scalar reference run,
    our [pixie]) through the per-unit schedules: each visit to a unit costs
    the issue cycle of the exit the execution actually takes, plus one.
    This is how the non-predicated models (global, squashing, trace
    scheduling, boosting) are evaluated, and it doubles as a cross-check
    for the machine-measured predicated models. *)

open Psb_isa

type t = {
  cycles : int;
  unit_visits : int;
  exits_taken : (Label.t * int) list;  (** (unit, count) *)
}

val measure :
  units:Runit.t Label.Map.t ->
  schedules:Sched.t Label.Map.t ->
  Program.t ->
  block_trace:int array ->
  t
(** Replay [block_trace], the blocks a run entered as positions in
    [program.blocks] ([Interp.result.block_trace]). The trace must be
    that of a run that halted: a run stopped by a fault or out of fuel
    can end inside a unit visit, which has no exit to charge.

    The units, their copies and their steps are flattened into int
    tables once per call (block numbering and branch arms from
    {!Psb_isa.Decoded}), so the replay itself does array reads only: a
    call allocates in proportion to the program and its units, not to
    the trace.
    @raise Invalid_argument if an index lies outside the program.
    @raise Failure if the trace cannot be replayed through the units: a
    visit starts at a block that heads no unit, the trace leaves the
    unit's copies or follows neither arm of a branch, or a step is
    missing (each a unit-construction bug); or the trace ends inside a
    unit visit (the trace of a run that did not halt), which the message
    locates by the unit's header and the last block. *)
