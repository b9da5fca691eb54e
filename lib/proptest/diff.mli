(** Whole-pipeline differential driver.

    One generated program, every stage boundary checked. The program is
    analysed once ({!Psb_compiler.Driver.analyze}): its decoded form is
    shared by every scalar and ROB stage below, and its CFG and loop
    heads by every compile. A trial runs the interpreter
    ({!Psb_isa.Interp}) once, as the reference: its block trace is also
    the training profile every compile reads, tabulated over the
    analysis's CFG. A trial runs five cold compiles: one per executable
    model (four), plus one independent compile in the cache stage.

    + the decoded form raised back to the program
      ({!Psb_isa.Decoded.check}) before any run walks it;
    + the reference against the out-of-order reorder-buffer backend
      ({!Psb_machine.Rob_sim}) — outcome (same fatal fault), output,
      final registers, final memory, handled-fault count, and the
      cycle-accounting breakdown summing exactly to the cycle count;
    + for every executable {!Psb_compiler.Model}: compile (optionally
      with an {!Inject}ed miscompile), statically verify
      ({!Psb_verify.Verify}), check the lowered form the machine will
      walk ({!Psb_machine.Lowered.check}: raised back to slots, it
      equals the verified code, latencies included; an injected
      miscompile is lowered here afresh), then run that very form on
      the VLIW machine and compare against the scalar reference (exact
      for halting runs; same-fatality for fatal traps; recovery
      episodes must not be lost);
    + the compile cache, on the flagship model only (the key covers
      the rest): its compile goes through a per-trial cache, a second
      lookup must return that very value, and one independent cold
      compile, with neither the shared analysis nor the cache, must
      equal it structurally ({!Psb_compiler.Driver.compiled_equal}).
      Both compile unverified, like the model stage, whose [verify]
      stage has already accepted exactly this code.

    The first failing stage is reported; an exception anywhere in the
    pipeline (e.g. the machine's [Machine_error] on injected code) is a
    failure of the stage that raised it, not a harness crash. *)

type failure = {
  stage : string;
      (** [decode] (the analysis and the decoded form's round trip),
          [interp], [rob-vs-interp], [profile], [compile], [verify],
          [lowering], [vliw-vs-scalar], [cache], prefixed by the model
          name where model-specific *)
  detail : string;
}

val pp_failure : failure -> string

type recoveries = {
  model : string;
  halted : int;
      (** trials whose VLIW run entered recovery and whose scalar run
          halted *)
  fatal : int;
      (** trials whose VLIW run entered recovery and whose scalar run
          stopped on a fatal fault *)
  faults_handled : int;  (** summed over every trial's VLIW run *)
}
(** One executable model's count of runs that reached §3.5's recovery. *)

val no_recoveries : unit -> recoveries array
(** All zero, one element per executable model in {!Psb_compiler.Model.all}
    order. *)

val add_recoveries : into:recoveries array -> recoveries array -> unit
(** Adds the second count to the first, model by model. *)

val check :
  ?inject:Inject.t ->
  ?times:(string, float) Hashtbl.t ->
  ?recoveries:recoveries array ->
  Gen.t ->
  (unit, failure) result
(** Run the full stage chain on one program. With [inject], the bug is
    applied to every executable model's compiled code before the verify
    and run stages — a healthy harness must then return [Error].

    [times] accumulates coarse per-stage wall-clock seconds into the
    given table (buckets: [decode] (the whole analysis), [scalar] (the
    decoded form's round trip), [interp] (the reference run), [rob],
    [profile] (tabulating the reference run's trace), [models],
    [cache]) — the fuzz driver sums these across
    trials for its throughput report. The table must not be shared
    between domains; give each trial its own and merge.

    [recoveries] (from {!no_recoveries}) counts, per model, the VLIW run
    the model stage already makes (no extra run), once the model's
    checks pass. The same sharing rule holds. A trial whose scalar run
    is out of fuel runs no model and counts nothing. *)
