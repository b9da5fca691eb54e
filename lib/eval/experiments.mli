(** Regeneration of every table and figure in the paper's evaluation
    (§4), plus the ablations discussed in the text. Each function returns
    typed rows and has a matching pretty-printer, so the bench harness and
    the tests consume the same data. *)

open Psb_compiler

(* ----- Table 2: benchmark programs ----- *)

type table2_row = {
  t2_name : string;
  t2_lines : int;  (** static instruction count — the paper's "Lines" *)
  t2_scalar_cycles : int;  (** the paper's "R3000 Cycles" via pixie *)
}

val table2 : Harness.t -> table2_row list
val pp_table2 : Format.formatter -> table2_row list -> unit

(* ----- Table 3: prediction accuracy of successive branches ----- *)

type table3_row = { t3_name : string; t3_acc : float array (* index 0 = depth 1 *) }

val table3 : Harness.t -> table3_row list
val pp_table3 : Format.formatter -> table3_row list -> unit

(* ----- Figures 6 and 7: speedups per model ----- *)

type speedup_table = {
  models : Model.t list;
  rows : (string * float list) list;  (** workload → speedup per model *)
  geomean : float list;
}

val figure6 : Harness.t -> speedup_table
(** Restricted models: global, squashing, trace-sched, region-sched. *)

val figure7 : Harness.t -> speedup_table
(** Predicating models: global, boosting, trace-pred, region-pred. *)

val pp_speedups : title:string -> Format.formatter -> speedup_table -> unit

(* ----- Rival out-of-order backend ----- *)

type rob_row = {
  r_name : string;
  r_scalar_cycles : int;
  r_rob_cycles : int;
  r_speedup : float;
  r_mispredicts : int;
  r_squashed : int;
  r_identical : bool;
      (** outcome, output, final registers and handled-fault count all
          match the scalar reference — the architectural-equivalence
          witness, re-checked on every report *)
}

type rob_table = { rob_rows : rob_row list; rob_geomean : float }

val rob_rival : Harness.t -> rob_table
(** The dynamic alternative ({!Psb_machine.Rob_sim}) on the harness
    machine model: per-workload cycles vs the scalar reference, with the
    speculation-waste counters. Kept out of {!speedup_table} on purpose —
    the ROB runs the {e scalar} program, so it has no compile model
    column. *)

val pp_rob : Format.formatter -> rob_table -> unit

(* ----- Figure 8: full-issue machines × speculation depth ----- *)

type fig8_cell = { issue : int; conds : int; speedup : float }

type fig8_row = { f8_name : string; cells : fig8_cell list }

val figure8 :
  ?issues:int list -> ?cond_depths:int list -> Harness.t -> fig8_row list
(** Region predicating on fully duplicated machines (default 2/4/8-issue)
    with speculation past 1/2/4/8 conditions. *)

val pp_figure8 : Format.formatter -> fig8_row list -> unit

(* ----- Ablations ----- *)

type shadow_row = {
  sh_name : string;
  sh_single_cycles : int;
  sh_infinite_cycles : int;
  sh_conflicts : int;
  sh_loss : float;  (** single/infinite - 1; paper fn.1 reports 0–1% *)
}

val shadow_ablation : Harness.t -> shadow_row list
(** Footnote 1: single vs infinite shadow registers (machine-measured).
    Its single-shadow region-pred runs are the ones {!validation} and
    {!btb_ablation} read back from the harness ({!Harness.measured}). *)

val pp_shadow : Format.formatter -> shadow_row list -> unit

type validation_row = {
  v_name : string;
  v_model : string;
  v_estimated : int;
  v_measured : int;
}

val validation : Harness.t -> validation_row list
(** Trace-driven estimates vs machine-measured cycles for the executable
    models — the accounting cross-check. *)

val pp_validation : Format.formatter -> validation_row list -> unit

type counter_row = {
  c_name : string;
  c_vector : float;  (** trace predicating, vector predicates *)
  c_counter : float;  (** counter-type predicates: sequential Setc *)
}

val counter_ablation : Harness.t -> counter_row list
(** §4.2.1: vector vs counter predicate representation — the vector form
    permits reordering of condition-set instructions. *)

val pp_counter : Format.formatter -> counter_row list -> unit

type btb_row = {
  b_name : string;
  b_free : int;  (** measured cycles under the zero-penalty BTB assumption *)
  b_miss1 : int;  (** with a one-cycle redirect on every region transition *)
}

val btb_ablation : Harness.t -> btb_row list
(** The paper's optimism check: region transitions cost 0 vs 1 cycle —
    "this optimistic assumption increases the evaluated performance a few
    percent". Both runs go through {!Harness.measured}, so both are
    checked against the scalar reference; the free-transition run is
    the base machine's region-pred run the other ablations share. *)

val pp_btb : Format.formatter -> btb_row list -> unit

type dup_row = {
  d_name : string;
  d_merged : float;  (** region predicating, joins merged (simple heuristic) *)
  d_split : float;  (** joins duplicated to avoid commit dependences *)
}

val dup_ablation : Harness.t -> dup_row list
(** §4.2.2: the paper attributes region predicating's occasional dips
    below trace predicating to commit dependences at merged joins, and
    duplicates join blocks when beneficial; this compares both policies. *)

val pp_dup : Format.formatter -> dup_row list -> unit

val related_work : Harness.t -> speedup_table
(** §2.2's mechanism spectrum, quantified: guarded (pipeline-only
    speculative state) → squashing → boosting (trace shadow buffering) →
    region predicating (unconstrained). *)

type size_row = {
  s_name : string;
  s_scalar : int;  (** static scalar instructions (Table 2 lines) *)
  s_by_model : (string * int) list;  (** model → static slots after compile *)
}

val code_growth : Harness.t -> size_row list
(** Code-size cost of speculation support (§2.2 notes boosting's recovery
    code doubles the original; region formation grows code by join and
    tail duplication instead). Static slot counts per model. *)

val pp_size : Format.formatter -> size_row list -> unit

type unroll_row = {
  u_name : string;
  u_by_factor : (int * float) list;  (** unroll factor → speedup, 8-issue *)
}

val unroll_ablation : ?factors:int list -> Harness.t -> unroll_row list
(** The paper's named future work: loop unrolling to feed wide machines
    ("speculative execution past eight conditions or eight duplications of
    resources produces little impact ... other compilation techniques
    which expose more parallelism (e.g. loop unrolling) may be
    required"). Region predicating on the 8-issue full machine with
    innermost loops unrolled 1/2/4 times. *)

val pp_unroll : Format.formatter -> unroll_row list -> unit

val limits : Harness.t -> Limits.row list
(** The §1 ILP limit study ({!Limits}), one row per harness entry in
    order: each entry's traced scalar run, replayed on the pool. *)

type sweep_row = { sw_taken_prob : float; sw_trace : float; sw_region : float }

val predictability_sweep :
  ?pool:Psb_parallel.Pool.t -> ?probs:float list -> unit -> sweep_row list
(** Synthetic diamond chains: region- vs trace-predicating speedup as
    branch predictability varies — the mechanism behind the paper's
    per-benchmark Figure 7 pattern. Each probability point is an
    independent task on [pool] when given (the per-point harnesses stay
    sequential so nothing nests). *)

val pp_sweep : Format.formatter -> sweep_row list -> unit
