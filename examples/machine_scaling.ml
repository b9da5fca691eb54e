(* Exploring the design space with the public API: how does region
   predicating scale with machine width and speculation depth on one
   workload, and what does the predicating hardware itself cost?
   (A one-workload slice of Figure 8 plus the §4.2.1 cost model.)

     dune exec examples/machine_scaling.exe *)

open Psb_isa
open Psb_workloads
module Driver = Psb_compiler.Driver
module Model = Psb_compiler.Model
module Machine_model = Psb_machine.Machine_model
module Hwcost = Psb_machine.Hwcost

let () =
  let w = Suite.find "eqntott" in
  let scalar, profile =
    Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
  in
  Format.printf "workload %s: scalar %d cycles@.@." w.Dsl.name
    scalar.Interp.cycles;
  Format.printf "%8s %8s %10s %10s@." "issue" "conds" "cycles" "speedup";
  List.iter
    (fun issue ->
      List.iter
        (fun conds ->
          let machine = Machine_model.full_issue ~width:issue ~max_spec_conds:conds in
          let compiled =
            Driver.compile ~model:Model.region_pred ~machine ~profile
              w.Dsl.program
          in
          let cycles =
            Driver.estimate_cycles compiled w.Dsl.program
              ~block_trace:scalar.Interp.block_trace
          in
          Format.printf "%8d %8d %10d %9.2fx@." issue conds cycles
            (float_of_int scalar.Interp.cycles /. float_of_int cycles))
        [ 1; 4 ])
    [ 2; 4; 8 ];

  (* What the shadow state costs in silicon (§4.2.1). *)
  Format.printf "@.hardware cost of the predicated register file:@.%a@."
    Hwcost.pp_report
    (Hwcost.analyze Hwcost.default);

  (* And what the single-shadow simplification costs in cycles (fn. 1). *)
  let measure machine =
    let compiled =
      Driver.compile ~model:Model.region_pred ~machine ~profile w.Dsl.program
    in
    (Driver.run_vliw compiled ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()))
      .Psb_machine.Vliw_sim.cycles
  in
  let single = measure Machine_model.base in
  let infinite =
    measure { Machine_model.base with shadow = Psb_machine.Regfile.Infinite }
  in
  Format.printf "@.single shadow: %d cycles, infinite shadows: %d (%.1f%% loss)@."
    single infinite
    (100. *. ((float_of_int single /. float_of_int infinite) -. 1.))
