(** Whole-pipeline differential driver.

    One generated program, every stage boundary checked. The program is
    analysed once ({!Psb_compiler.Driver.analyze}): its decoded form is
    shared by every scalar and ROB stage below, and its CFG and loop
    heads by every compile. A trial runs five cold compiles: one per
    executable model (four), plus one independent compile in the cache
    stage. The reference is the interpreter ({!Psb_isa.Interp}) on its
    default decoded kernel:

    + the decoded interpreter kernel against the tree-walking one —
      outcome, output, cycles, dynamic instructions, block trace, final
      registers, handled-fault count and final memory, all exact;
    + the reference against the out-of-order reorder-buffer backend
      ({!Psb_machine.Rob_sim}) — outcome (same fatal fault), output,
      final registers, final memory, handled-fault count, and the
      cycle-accounting breakdown summing exactly to the cycle count;
    + for every executable {!Psb_compiler.Model}: compile (optionally
      with an {!Inject}ed miscompile), statically verify
      ({!Psb_verify.Verify}), then run the predicated code on the VLIW
      machine and compare against the scalar reference (exact for
      halting runs; same-fatality for fatal traps; recovery episodes
      must not be lost);
    + the tree-walking execution kernel against the lowered
      structure-of-arrays kernel ({!Psb_machine.Lowered}): the same
      result record, final registers, stats and cycle breakdown
      included;
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
      (** [decode], [interp], [scalar-decoded-vs-tree],
          [rob-vs-interp], [profile], [compile], [verify], [vliw-vs-scalar],
          [lowered-vs-tree], [cache], prefixed by the model name where
          model-specific *)
  detail : string;
}

val pp_failure : failure -> string

val check :
  ?inject:Inject.t ->
  ?times:(string, float) Hashtbl.t ->
  Gen.t ->
  (unit, failure) result
(** Run the full stage chain on one program. With [inject], the bug is
    applied to every executable model's compiled code before the verify
    and run stages — a healthy harness must then return [Error].

    [times] accumulates coarse per-stage wall-clock seconds into the
    given table (buckets: [decode] (the whole analysis), [interp],
    [scalar] (the [scalar-decoded-vs-tree] stage), [rob], [profile],
    [models], [cache]) — the fuzz driver sums these across
    trials for its throughput report. The table must not be shared
    between domains; give each trial its own and merge. *)
