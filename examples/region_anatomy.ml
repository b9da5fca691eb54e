(* Anatomy of a predicated region (the paper's Figure 3 → Figure 4 walk):
   a loop whose body is a diamond is collapsed into one region. The join
   block's two path predicates (c0 and !c0) merge back to "always" (the
   equivalent-block rule of §3.3), both arms execute speculatively under
   complementary predicates, and the loop's back edge and exit become
   predicated exit slots.

     dune exec examples/region_anatomy.exe *)

open Psb_isa
open Psb_workloads.Dsl
module Driver = Psb_compiler.Driver
module Model = Psb_compiler.Model
module Runit = Psb_compiler.Runit
module Sched = Psb_compiler.Sched
module Cfg = Psb_cfg.Cfg
module Machine_model = Psb_machine.Machine_model

let program =
  Program.make ~entry:(lbl "entry")
    [
      block "entry" [ mov 1 (i 0); mov 2 (i 0); mov 3 (i 0) ] (jmp "head");
      block "head"
        [ add 6 (r 20) (r 1); load 4 6 0; cmp 5 Opcode.Ne (r 4) (i 0) ]
        (br 5 "then" "else");
      block "then" [ add 2 (r 2) (r 4) ] (jmp "join");
      block "else" [ add 3 (r 3) (i 1) ] (jmp "join");
      block "join" [ add 1 (r 1) (i 1); cmp 5 Opcode.Lt (r 1) (i 32) ]
        (br 5 "head" "exit");
      block "exit" [ out (r 2); out (r 3) ] halt;
    ]

let make_mem () =
  let mem = Memory.create ~size:64 in
  let rand = lcg 3 in
  for k = 0 to 31 do
    Memory.poke mem k (rand () mod 2 * (1 + (rand () mod 9)))
  done;
  mem

let () =
  let scalar, profile = Driver.profile_of program ~regs:[] ~mem:(make_mem ()) in

  Format.printf "--- scalar CFG ---@.%a@." Program.pp program;

  (* Region formation alone: copies, predicates, exits. *)
  let cfg = Cfg.of_program program in
  let params =
    Runit.default_params ~scope:Model.Region ~max_conds:4 ~fuse_compare:true ()
  in
  let u =
    Runit.build params cfg profile ~header:(lbl "head")
      ~avoid:(Label.Set.of_list [ lbl "entry"; lbl "head" ])
  in
  Format.printf "--- region grown from `head` ---@.%a@." Runit.pp u;

  (* The schedule: note both diamond arms issuing speculatively under c0 /
     !c0 before the condition is set, like i15/i10 in Table 1. *)
  let sched = Sched.schedule Model.region_pred Machine_model.base u in
  Format.printf "--- 4-issue schedule ---@.%a@." Sched.pp sched;
  Format.printf "--- predicated VLIW code ---@.%a@." Psb_machine.Pcode.pp_region
    (Sched.emit sched);

  (* And the payoff. *)
  let compiled =
    Driver.compile ~model:Model.region_pred ~machine:Machine_model.base
      ~profile program
  in
  let vliw = Driver.run_vliw compiled ~regs:[] ~mem:(make_mem ()) in
  Format.printf "@.scalar %d cycles -> predicated %d cycles (%.2fx)@."
    scalar.Interp.cycles vliw.Psb_machine.Vliw_sim.cycles
    (float_of_int scalar.Interp.cycles
    /. float_of_int vliw.Psb_machine.Vliw_sim.cycles);
  assert (vliw.Psb_machine.Vliw_sim.output = scalar.Interp.output)
