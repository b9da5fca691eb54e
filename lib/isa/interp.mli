(** Reference interpreter for scalar programs.

    Plays the role the MIPS R3000 + [pixie] play in the paper: it is both
    the semantic oracle (final registers, memory, observable output) and
    the cycle/trace oracle for the evaluation. The cycle model follows the
    paper's base machine: every instruction takes one cycle, terminators
    included, and loads take two (a one-cycle stall is charged when the
    next operation of the same block uses the loaded value; a terminator
    never stalls and ends the interlock). Branches are otherwise free
    under the paper's optimistic BTB assumption. Recoverable faults are
    handled in place (demand page mapped, access retried); fatal faults
    stop the run. *)

type outcome = Halted | Fatal of Fault.t | Out_of_fuel

type result = {
  outcome : outcome;
  output : int list;  (** values emitted by [Out], in order *)
  cycles : int;
  dyn_instrs : int;
  block_trace : int array;
      (** blocks entered, in order, each as its position in
          [program.blocks] — the numbering {!Decoded} uses *)
  regs : int Reg.Map.t;  (** final register file (registers ever written) *)
  faults_handled : int;
}

val run :
  ?fuel:int ->
  ?record_trace:bool ->
  ?decoded:Decoded.t ->
  ?on_block:(int -> Label.t -> unit) ->
  regs:(Reg.t * int) list ->
  mem:Memory.t ->
  Program.t ->
  result
(** Walks the program's flat {!Decoded} form. [fuel] bounds the number
    of dynamic instructions (default 30M); it is sampled at block entry,
    so a block entered with at most [fuel] instructions behind it runs to
    its terminator. [record_trace] (default true) controls whether
    [block_trace] is kept; without it, nothing is allocated per block
    entered. [on_block] is called with the current cycle count on every
    block entry (regardless of [record_trace]) — the hook behind
    per-block timelines. [mem] is mutated in place.

    [decoded] supplies a prebuilt form so repeated runs of one program
    (fuzz stages, limit regimes) decode once; it must have been built
    from exactly this program.
    @raise Invalid_argument if [decoded] was decoded from a different
    program value ({!Decoded.check_source}). *)

val equivalent : result -> result -> bool
(** Same outcome, output and final registers — used to check that compiled
    code preserves semantics (memory is compared separately with
    {!Memory.equal}). *)

val pp_outcome : Format.formatter -> outcome -> unit
