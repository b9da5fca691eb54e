(* sim-long: the six paper programs, compiled once for region-pred on the
   base machine (the set-up), then run again and again on the
   interpreter, the ROB rival and the predicated VLIW.

   Why: the compiler is bypassed, and the cycle loops take nearly all of
   a rep on runs of 18k-117k instructions, so this is where a faster
   machine shows. No suite program faults; the recovery path is left to
   fuzz-campaign. The programs are fixed, so the seed is recorded but
   changes nothing. *)

open Psb_isa
open Psb_workloads
module Driver = Psb_compiler.Driver
module Model = Psb_compiler.Model
module Machine_model = Psb_machine.Machine_model
module Rob_sim = Psb_machine.Rob_sim
module Vliw_sim = Psb_machine.Vliw_sim

type prog = { w : Dsl.t; compiled : Driver.compiled }

let compile ?ledger ?metrics (w : Dsl.t) =
  let label = w.Dsl.name and program = w.Dsl.program in
  let _, profile =
    Ledger.opt_span ledger ~label "compiler.profile" (fun () ->
        Driver.profile_of program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()))
  in
  let compiled =
    Ledger.opt_span ledger ~label "compiler.compile" (fun () ->
        Driver.compile ?metrics ~model:Model.region_pred
          ~machine:Machine_model.base ~profile program)
  in
  { w; compiled }

(* Architectural agreement with the interpreter's run of the same
   program: outcome, output and final memory. *)
let agrees (reference : Interp.result) ref_mem ~outcome ~output mem =
  outcome = reference.Interp.outcome
  && output = reference.Interp.output
  && Memory.equal ref_mem mem

(* One rep: every program on every machine, each checked against the
   interpreter. Returns each program's committed instruction count. *)
let rep ?ledger tally acc progs =
  List.map
    (fun { w; compiled } ->
      let label = w.Dsl.name and regs = w.Dsl.regs and program = w.Dsl.program in
      let ref_mem = w.Dsl.make_mem () in
      let reference = Machines.interp ?ledger ~label acc ~regs ~mem:ref_mem program in
      let instrs = reference.Interp.dyn_instrs in
      let mem = w.Dsl.make_mem () in
      let r = Machines.rob ?ledger ~label acc ~instrs ~regs ~mem program in
      Workload.check tally
        (agrees reference ref_mem ~outcome:r.Rob_sim.outcome
           ~output:r.Rob_sim.output mem)
        (label ^ ": rob differs from the interpreter");
      let mem = w.Dsl.make_mem () in
      let v = Machines.vliw ?ledger ~label acc ~instrs compiled ~regs ~mem in
      Workload.check tally
        (agrees reference ref_mem ~outcome:v.Vliw_sim.outcome
           ~output:v.Vliw_sim.output mem)
        (label ^ ": vliw differs from the interpreter");
      (label, instrs))
    progs

let timed (cfg : Workload.config) tally =
  let progs = ref [] in
  let setup = Workload.setup cfg (fun () -> progs := List.map compile Suite.all) in
  let instrs = ref 0 in
  let reps =
    Workload.reps cfg (fun _ ->
        instrs :=
          List.fold_left (fun n (_, i) -> n + i) 0 (rep tally (Machines.create ()) !progs))
  in
  {
    Workload.setup;
    reps;
    note =
      Printf.sprintf "per rep: %d instructions on each of 3 machines (%.4g M/s)" !instrs
        (float_of_int (3 * !instrs) /. Workload.p10 reps /. 1e6);
  }

let traced (cfg : Workload.config) tally ledger =
  let metrics = Psb_obs.Metrics.create () in
  let progs =
    Ledger.span ledger "sim.setup" (fun () ->
        List.map (compile ~ledger ~metrics) Suite.all)
  in
  let k = if cfg.quick then 1 else 10 in
  (* the same reps untraced first, for the tracing overhead *)
  let untraced =
    List.init k (fun _ ->
        snd (Workload.timed (fun () -> rep tally (Machines.create ()) progs)))
  in
  let acc = Machines.create () in
  let instrs = ref [] in
  for i = 0 to k - 1 do
    instrs := Ledger.span ledger ~rep:i "sim.rep" (fun () -> rep ~ledger tally acc progs)
  done;
  let reps = Ledger.durations ledger "sim.rep" in
  let within = "sim.rep" and total = List.fold_left ( +. ) 0. reps in
  let per_program =
    List.concat_map
      (fun (label, n) ->
        List.map
          (fun prefix ->
            ( Printf.sprintf "%s.%s_minstr_per_s" prefix label,
              Workload.ratio (float_of_int n)
                (Workload.p10 (Ledger.durations ledger ~label prefix))
              /. 1e6 ))
          [ "isa.interp"; "machine.rob"; "machine.vliw" ])
      !instrs
  in
  Passes.shares metrics
  @ Ledger.call_metrics ledger ~within ~total "compiler.profile"
  @ Ledger.call_metrics ledger ~within ~total "compiler.compile"
  @ Machines.metrics ledger acc ~within ~total
  @ per_program
  @ [
      ( "trace_overhead",
        Workload.ratio (Workload.p10 reps) (Workload.p10 untraced) -. 1. );
    ]
