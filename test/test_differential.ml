(* Differential testing: generate random structured programs, compile
   them for every executable model, run the predicated code on the
   cycle-level machine, and require the observable behaviour of the scalar
   reference interpreter (exactly for halting runs; same-fatality for
   fatal traps, where the compiler may legitimately have reordered
   independent side effects). *)

open Psb_isa
open Psb_compiler
module Machine_model = Psb_machine.Machine_model
module Vliw_sim = Psb_machine.Vliw_sim
module Rob_sim = Psb_machine.Rob_sim
module Lowered = Psb_machine.Lowered

open Gen_programs

let outcomes_match (a : Interp.outcome) (b : Interp.outcome) =
  match (a, b) with
  | Interp.Halted, Interp.Halted -> true
  | Interp.Fatal f1, Interp.Fatal f2 -> Fault.equal f1 f2
  | Interp.Out_of_fuel, Interp.Out_of_fuel -> true
  | _ -> false

let differential model =
  QCheck.Test.make
    ~name:("compiled = scalar [" ^ model.Model.name ^ "]")
    ~count:120 arb_program
    (fun g ->
      let scalar_mem = make_mem g in
      let scalar = Interp.run ~fuel:500_000 ~regs ~mem:scalar_mem g.program in
      QCheck.assume (scalar.Interp.outcome <> Interp.Out_of_fuel);
      let _, profile = Driver.profile_of g.program ~regs ~mem:(make_mem g) in
      let compiled =
        Driver.compile ~model ~machine:Machine_model.base ~profile g.program
      in
      let vliw_mem = make_mem g in
      let vliw = Leash.run_vliw compiled ~regs ~mem:vliw_mem in
      (* On a *fatal* trap only the fault itself is defined: the compiler
         may have hoisted independent stores/outputs above the faulting
         instruction (standard VLIW imprecision at fatal traps — the
         paper's precision mechanism covers speculative faults, which are
         the recoverable ones). Halted runs must match exactly. *)
      let ok =
        match scalar.Interp.outcome with
        | Interp.Fatal _ ->
            (* reordering may surface a different (also fatal) fault first *)
            (match vliw.Vliw_sim.outcome with Interp.Fatal _ -> true | _ -> false)
        | _ ->
            outcomes_match scalar.Interp.outcome vliw.Vliw_sim.outcome
            && scalar.Interp.output = vliw.Vliw_sim.output
            && Memory.equal scalar_mem vliw_mem
      in
      if not ok then
        QCheck.Test.fail_reportf
          "scalar: %a / output %s@.vliw: %a / output %s@.memory equal: %b"
          Interp.pp_outcome scalar.Interp.outcome
          (String.concat "," (List.map string_of_int scalar.Interp.output))
          Interp.pp_outcome vliw.Vliw_sim.outcome
          (String.concat "," (List.map string_of_int vliw.Vliw_sim.output))
          (Memory.equal scalar_mem vliw_mem);
      true)

(* Every model compiles on the base and the 8-issue, 8-condition
   machine, and the flat replay's estimate equals the label-walking
   oracle's whole record. *)
let estimate_never_crashes =
  QCheck.Test.make ~name:"all models compile + estimate" ~count:60 arb_program
    (fun g ->
      let scalar_mem = make_mem g in
      let scalar = Interp.run ~fuel:500_000 ~regs ~mem:scalar_mem g.program in
      QCheck.assume (scalar.Interp.outcome = Interp.Halted);
      let _, profile = Driver.profile_of g.program ~regs ~mem:(make_mem g) in
      List.for_all
        (fun machine ->
          List.for_all
            (fun model ->
              let compiled = Driver.compile ~model ~machine ~profile g.program in
              match
                Cycles_oracle.compare compiled g.program
                  ~block_trace:scalar.Interp.block_trace
              with
              | Ok est -> est.Cycles.cycles > 0
              | Error e ->
                  QCheck.Test.fail_reportf "%s, %d-issue: %s" model.Model.name
                    machine.Machine_model.issue_width e)
            Model.all)
        [ Machine_model.base; Machine_model.full_issue ~width:8 ~max_spec_conds:8 ])

let infinite_shadow_agrees =
  QCheck.Test.make ~name:"infinite shadow = single shadow semantics" ~count:60
    arb_program (fun g ->
      let scalar_mem = make_mem g in
      let scalar = Interp.run ~fuel:500_000 ~regs ~mem:scalar_mem g.program in
      QCheck.assume (scalar.Interp.outcome <> Interp.Out_of_fuel);
      let _, profile = Driver.profile_of g.program ~regs ~mem:(make_mem g) in
      let compiled =
        Driver.compile ~model:Model.region_pred
          ~machine:
            { Machine_model.base with shadow = Psb_machine.Regfile.Infinite }
          ~profile g.program
      in
      let vliw_mem = make_mem g in
      let vliw = Leash.run_vliw compiled ~regs ~mem:vliw_mem in
      match scalar.Interp.outcome with
      | Interp.Fatal _ -> (
          match vliw.Vliw_sim.outcome with Interp.Fatal _ -> true | _ -> false)
      | _ ->
          outcomes_match scalar.Interp.outcome vliw.Vliw_sim.outcome
          && scalar.Interp.output = vliw.Vliw_sim.output
          && Memory.equal scalar_mem vliw_mem)

(* ----- parallel differential fuzzing -----

   The pool-sharded version of [differential]: a fixed-seed batch of
   random programs crossed with every executable model, each
   (program × model) cell an independent task on an 8-wide pool. This
   exercises the whole compile/simulate pipeline concurrently (shared
   nothing but immutable inputs), checks the same observable-equivalence
   contract, and additionally requires that the batch covered
   exception-recovery episodes — the paper's precise-interrupt machinery
   must keep working when cells run on arbitrary domains. *)

let executable_models =
  List.filter (fun (m : Model.t) -> m.Model.executable) Model.all

type cell_report = {
  cr_model : string;
  cr_index : int;
  cr_ok : bool;
  cr_detail : string;
  cr_scalar_faults : int;
  cr_vliw_faults : int;
  cr_halted : bool;
}

let run_cell (idx, g, (model : Model.t)) =
  let scalar_mem = make_mem g in
  let scalar = Interp.run ~fuel:500_000 ~regs ~mem:scalar_mem g.program in
  let _, profile = Driver.profile_of g.program ~regs ~mem:(make_mem g) in
  let compiled =
    Driver.compile ~model ~machine:Machine_model.base ~profile g.program
  in
  let vliw_mem = make_mem g in
  let vliw = Leash.run_vliw compiled ~regs ~mem:vliw_mem in
  let ok, detail =
    match scalar.Interp.outcome with
    | Interp.Out_of_fuel -> (true, "skipped: out of fuel")
    | Interp.Fatal _ -> (
        match vliw.Vliw_sim.outcome with
        | Interp.Fatal _ -> (true, "")
        | o -> (false, Format.asprintf "fatal scalar but vliw %a" Interp.pp_outcome o))
    | Interp.Halted ->
        if not (outcomes_match scalar.Interp.outcome vliw.Vliw_sim.outcome)
        then (false, Format.asprintf "outcome %a" Interp.pp_outcome vliw.Vliw_sim.outcome)
        else if scalar.Interp.output <> vliw.Vliw_sim.output then
          (false, "output differs")
        else if not (Memory.equal scalar_mem vliw_mem) then
          (false, "memory differs")
        else if
          (* recovery must not be lost in translation: every fault the
             scalar reference handled, the machine must also have
             recovered from (it cannot halt with matching state
             otherwise, but make the episode itself observable) *)
          scalar.Interp.faults_handled > 0
          && vliw.Vliw_sim.faults_handled = 0
        then (false, "scalar recovered but vliw reported no recovery")
        else (true, "")
  in
  {
    cr_model = model.Model.name;
    cr_index = idx;
    cr_ok = ok;
    cr_detail = detail;
    cr_scalar_faults = scalar.Interp.faults_handled;
    cr_vliw_faults = vliw.Vliw_sim.faults_handled;
    cr_halted = (scalar.Interp.outcome = Interp.Halted);
  }

(* A handcrafted batch member that deterministically touches unmapped
   demand pages, so the recovery-coverage assertion below never depends
   on the random draw. *)
let recovery_prog : Gen_programs.t =
  let reg = Reg.make and lbl = Label.make in
  let blocks =
    [
      Program.block (lbl "entry")
        [
          Instr.Mov { dst = reg 7; src = Operand.imm 200 };
          (* 200 and 300 sit inside the unmapped 128..384 window *)
          Instr.Load { dst = reg 1; base = reg 7; off = 0 };
          Instr.Mov { dst = reg 7; src = Operand.imm 300 };
          Instr.Load { dst = reg 2; base = reg 7; off = 0 };
          Instr.Out (Operand.reg (reg 1));
          Instr.Out (Operand.reg (reg 2));
        ]
        Instr.Halt;
    ]
  in
  Gen_programs.handmade ~demand:true ~descr:"handcrafted demand-page recovery"
    (Program.make ~entry:(lbl "entry") blocks)

let test_parallel_differential () =
  let st = Random.State.make [| 0xC0FFEE; 42 |] in
  let programs = List.init 40 (fun i -> (i, Gen_programs.gen_program st)) in
  let programs = (List.length programs, recovery_prog) :: programs in
  let cells =
    List.concat_map
      (fun (i, g) -> List.map (fun m -> (i, g, m)) executable_models)
      programs
  in
  let reports =
    Psb_parallel.Pool.with_pool ~jobs:8 (fun pool ->
        Psb_parallel.Pool.map pool run_cell cells)
  in
  Alcotest.(check int)
    "every cell produced a verdict"
    (List.length cells) (List.length reports);
  let reports =
    List.map
      (function
        | Ok r -> r
        | Error e ->
            Alcotest.failf "cell raised: %s"
              (Printexc.to_string e.Psb_parallel.Pool.exn))
      reports
  in
  List.iter
    (fun r ->
      if not r.cr_ok then
        Alcotest.failf "program %d, model %s: %s" r.cr_index r.cr_model
          r.cr_detail)
    reports;
  (* the fixed seed must actually exercise recovery, or the equivalence
     checks above are vacuous on the precise-interrupt path *)
  let recovered =
    List.length
      (List.filter (fun r -> r.cr_halted && r.cr_vliw_faults > 0) reports)
  in
  Alcotest.(check bool)
    (Printf.sprintf "batch covered recovery episodes (%d cells)" recovered)
    true (recovered > 0)

(* ----- lowering round trip -----

   The machine walks the lowered form of the code it is given. Raised
   back to slots, every compile's lowering must equal its pcode, with
   the machine's latencies, on both machines the sweeps use. *)

let round_trip_machines =
  [ Machine_model.base; Machine_model.full_issue ~width:8 ~max_spec_conds:8 ]

let lowering_of (c : Driver.compiled) =
  match Lowered.check (Option.get c.Driver.lowered) with
  | Ok () -> None
  | Error e -> Some (c.Driver.model.Model.name ^ ": " ^ e)

let lowering_round_trip =
  QCheck.Test.make ~name:"every compile's lowering round-trips" ~count:120
    arb_program (fun g ->
      let scalar = Interp.run ~fuel:500_000 ~regs ~mem:(make_mem g) g.program in
      QCheck.assume (scalar.Interp.outcome <> Interp.Out_of_fuel);
      let _, profile = Driver.profile_of g.program ~regs ~mem:(make_mem g) in
      List.iter
        (fun machine ->
          List.iter
            (fun model ->
              match
                lowering_of (Driver.compile ~model ~machine ~profile g.program)
              with
              | None -> ()
              | Some e ->
                  QCheck.Test.fail_reportf "%d-issue %s"
                    machine.Machine_model.issue_width e)
            executable_models)
        round_trip_machines;
      true)

let test_lowering_suite_round_trip () =
  let open Psb_workloads in
  List.iter
    (fun (w : Dsl.t) ->
      let _, profile =
        Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
      in
      List.iter
        (fun machine ->
          List.iter
            (fun model ->
              Alcotest.(check (option string))
                (Printf.sprintf "%s/%s %d-issue" w.Dsl.name model.Model.name
                   machine.Machine_model.issue_width)
                None
                (lowering_of
                   (Driver.compile ~model ~machine ~profile w.Dsl.program)))
            executable_models)
        round_trip_machines)
    Suite.all

(* ----- scalar-kernel identity -----

   The interpreter's walk over the predecoded form ([Decoded.of_program])
   and the tree walk it replaced ([Interp_oracle]) must be
   indistinguishable: decoding preresolves operands and branch targets,
   but may never change semantics, cycle charging, traces or fault
   handling. *)

let scalar_results_agree (a : Interp.result) (b : Interp.result) =
  outcomes_match a.Interp.outcome b.Interp.outcome
  && a.Interp.output = b.Interp.output
  && a.Interp.cycles = b.Interp.cycles
  && a.Interp.dyn_instrs = b.Interp.dyn_instrs
  && a.Interp.block_trace = b.Interp.block_trace
  && Reg.Map.equal Int.equal a.Interp.regs b.Interp.regs
  && a.Interp.faults_handled = b.Interp.faults_handled

let run_both_scalar_kernels ~decoded ~regs ~mem_of program =
  let dec_mem = mem_of () and tree_mem = mem_of () in
  ( (Interp.run ~fuel:500_000 ~decoded ~regs ~mem:dec_mem program, dec_mem),
    (Interp_oracle.run ~fuel:500_000 ~regs ~mem:tree_mem program, tree_mem) )

let scalar_kernel_identity =
  QCheck.Test.make ~name:"decoded interp = tree interp (cycle-exact)"
    ~count:200 arb_program (fun g ->
      let decoded = Decoded.of_program g.program in
      let (dec, dec_mem), (tree, tree_mem) =
        run_both_scalar_kernels ~decoded ~regs
          ~mem_of:(fun () -> make_mem g) g.program
      in
      if not (scalar_results_agree dec tree && Memory.equal dec_mem tree_mem)
      then
        QCheck.Test.fail_reportf
          "scalar kernels diverged: decoded %a / %d cycles / %d instrs, tree \
           %a / %d cycles / %d instrs"
          Interp.pp_outcome dec.Interp.outcome dec.Interp.cycles
          dec.Interp.dyn_instrs Interp.pp_outcome tree.Interp.outcome
          tree.Interp.cycles tree.Interp.dyn_instrs;
      true)

let test_scalar_kernel_suite_identity () =
  let open Psb_workloads in
  List.iter
    (fun (w : Dsl.t) ->
      let decoded = Decoded.of_program w.Dsl.program in
      let (dec, dec_mem), (tree, tree_mem) =
        run_both_scalar_kernels ~decoded ~regs:w.Dsl.regs
          ~mem_of:w.Dsl.make_mem w.Dsl.program
      in
      Alcotest.(check bool)
        (w.Dsl.name ^ " results agree")
        true
        (scalar_results_agree dec tree);
      Alcotest.(check int) (w.Dsl.name ^ " cycles") tree.Interp.cycles
        dec.Interp.cycles;
      Alcotest.(check bool)
        (w.Dsl.name ^ " memory equal")
        true
        (Memory.equal dec_mem tree_mem))
    Suite.all

let asm_roundtrip =
  QCheck.Test.make ~name:"asm print/parse round-trips" ~count:200
    Gen_programs.arb_program (fun g ->
      let text = Asm.print g.Gen_programs.program in
      match Asm.parse text with
      | Error m -> QCheck.Test.fail_reportf "parse failed: %s@.%s" m text
      | Ok p -> Asm.print p = text)

let () =
  Alcotest.run "differential"
    [
      ( "differential",
        List.map Qc.to_alcotest
          [
            differential Model.region_pred;
            differential Model.trace_pred;
            differential Model.region_sched;
            differential Model.guarded;
            estimate_never_crashes;
            infinite_shadow_agrees;
            scalar_kernel_identity;
            asm_roundtrip;
          ] );
      ( "lowering",
        [
          Qc.to_alcotest lowering_round_trip;
          Alcotest.test_case "whole suite x models x machines" `Quick
            test_lowering_suite_round_trip;
        ] );
      ( "scalar-kernel",
        [
          Alcotest.test_case "whole suite cycle-exact" `Quick
            test_scalar_kernel_suite_identity;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "pool-sharded differential (all models)" `Quick
            test_parallel_differential;
        ] );
    ]
