(** Whole-program compilation driver: profile → units → schedules →
    (for the predicating models) executable VLIW code. *)

open Psb_isa
module Machine_model = Psb_machine.Machine_model
module Pcode = Psb_machine.Pcode
module Vliw_sim = Psb_machine.Vliw_sim
module Branch_predict = Psb_cfg.Branch_predict
module Cfg = Psb_cfg.Cfg

type compiled = {
  model : Model.t;
  machine : Machine_model.t;
  units : Runit.t Label.Map.t;
  schedules : Sched.t Label.Map.t;
  pcode : Pcode.t option;  (** for executable models *)
  lowered : Psb_machine.Lowered.t option;
      (** [pcode] lowered to the flat threaded form ({!Psb_machine.Lowered}),
          built once per compile (and so shared by every cache hit). Always
          corresponds to [pcode] exactly — a caller substituting a different
          pcode (e.g. injecting a miscompile) must drop this field. *)
}

val compiled_equal : compiled -> compiled -> bool
(** Structural equality of two compiles: the same per-region issue
    cycles, the same {!code_size}, and [=] on the pcode. No printing. *)

type unit_memo
(** The unit formations ({!Runit.build_all}) made by the compiles that
    share an analysis. *)

(** What every compile of one program shares, whatever the model,
    machine or profile. *)
type analysis = private {
  program : Program.t;  (** the program analysed, compared physically *)
  cfg : Cfg.t;
  loop_heads : Label.t list;
  decoded : Decoded.t;
      (** the program predecoded to the flat form the interpreter and
          the ROB walk ({!Psb_isa.Decoded}); compiles do not read it *)
  unit_memo : unit_memo;
      (** Units formed once per ({!Runit.params}, profile): the params
          compare structurally and the profile physically, so the
          compiles of one program under one profile whose models and
          machine give the same params ([region-sched], [guarded] and
          [region-pred] on one machine) share one [units] map, while
          [trace-pred], another CCR size, [avoid_commit_deps] or another
          profile value form their own. Unit formation reads only the
          CFG, the loop heads, the params and the profile, and a unit is
          never mutated after it is built, so the shared map is the one
          a cold compile would build. The memo is safe to use from
          several domains: a miss forms the units outside any lock and
          publishes them by compare-and-set, and if another domain
          published the same key first, its map is the one returned. *)
}

val analyze : ?metrics:Psb_obs.Metrics.t -> Program.t -> analysis
(** Build the CFG, its loop heads (through dominance) and the decoded
    form. [metrics] times the first three as the [cfg] pass and the
    decode as the [decode] pass, under the labels {!compile} uses. *)

val profile_of : Program.t -> regs:(Reg.t * int) list -> mem:Memory.t ->
  Psb_isa.Interp.result * Branch_predict.t
(** Run the scalar reference once to obtain the training profile. The
    memory is consumed (pass a fresh copy). *)

val compile :
  ?metrics:Psb_obs.Metrics.t ->
  ?cache:compiled Compile_cache.t ->
  ?analysis:analysis ->
  ?single_shadow:bool ->
  ?avoid_commit_deps:bool ->
  ?verify:bool ->
  model:Model.t ->
  machine:Machine_model.t ->
  profile:Branch_predict.t ->
  Program.t ->
  compiled
(** @raise Invalid_argument if [analysis] was built from another
    program value (physical equality, as {!Psb_isa.Decoded.check_source}),
    if [profile] was tabulated over another program value's CFG
    ({!Runit.build_all}), or if [machine]'s [ccr_size] is past
    {!Psb_isa.Pred.word_bits}, the conditions a predicate can name.
    @raise Failure if any unit schedule fails validation, or — for
    executable models, unless [verify:false] — if the emitted predicated
    code fails the static speculation-safety verifier
    ({!Psb_verify.Verify}; the failure message embeds the full
    diagnostic report). [verify] defaults to [true]: every compile in
    the tests and the bench proves its output safe; pass [verify:false]
    only when the caller wants the raw (possibly unsafe) code, e.g. to
    inspect a miscompile or to run the verifier itself with custom
    reporting. To compile an
    optimised program, apply {!Transform.optimize} (and
    {!Transform.jump_thread}) {e before} profiling, so the training trace
    and the compiled code agree on block labels.

    [metrics] collects per-pass wall-clock timings
    ([compile_pass_seconds{pass=cfg|unit_formation|schedule|check|emit|verify|lower|decode}]),
    the unit count, and a schedule-density histogram ([sched_density],
    operations per bundle). The pass labels are load-bearing: the
    repository benchmark reads [decode] (and the others) by name as
    [compiler.pass.<pass>_share], so renaming or dropping one fails its
    smoke check.

    [analysis] lets the compiles of one program share its {!analyze}
    result and its unit formations (see [unit_memo]); without it, a
    compile that misses the cache (or has none) runs {!analyze} itself,
    timing [cfg] and [decode] as above, and forms its own units.

    [cache] short-circuits the whole pipeline on a content hit (see
    {!Compile_cache} for the key derivation); on a hit no passes run,
    so no pass timings are recorded. The returned value may be shared
    with other callers (and other domains) — treat it as read-only,
    which every consumer already does. *)

val estimate_cycles : compiled -> Program.t -> block_trace:int array -> int
(** Trace-driven cycle count (see {!Cycles.measure}). [block_trace] is
    the [Interp.result.block_trace] of a run of [program] that halted.
    @raise Failure if the trace cannot be replayed, including the trace
    of a run stopped by a fault or out of fuel. *)

val run_vliw :
  ?fuel:int ->
  ?regfile_mode:Psb_machine.Regfile.mode ->
  ?events:Psb_obs.Events.t ->
  ?metrics:Psb_obs.Metrics.t ->
  compiled ->
  regs:(Reg.t * int) list ->
  mem:Memory.t ->
  Vliw_sim.result
(** Execute the compiled predicated code on the machine simulator;
    [fuel] (the cycle bound), [regfile_mode], [events] and [metrics] are
    passed through to {!Vliw_sim.run}, along with the cached [lowered]
    form (so a run never re-lowers).
    @raise Invalid_argument if the model is not executable. *)

val code_size : compiled -> int
(** Total static slots across all regions (code-growth metric). *)
