(* Tests of the scalar transformations (copy propagation, DCE, jump
   threading): targeted behaviour plus semantic preservation on the whole
   benchmark suite and on random programs. *)

open Psb_isa
open Psb_compiler
open Psb_workloads

let reg = Reg.make
let lbl = Label.make
let rr i = Operand.reg (reg i)
let im i = Operand.imm i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run program ~regs ~mem = Interp.run ~regs ~mem program

let same_semantics ?(regs = []) ~mem_fn p1 p2 =
  let m1 = mem_fn () and m2 = mem_fn () in
  let r1 = run p1 ~regs ~mem:m1 and r2 = run p2 ~regs ~mem:m2 in
  r1.Interp.outcome = r2.Interp.outcome
  && r1.Interp.output = r2.Interp.output
  && Memory.equal m1 m2

(* ---------- copy propagation ---------- *)

let test_copy_prop_basic () =
  let p =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [
            Instr.Mov { dst = reg 1; src = im 7 };
            Instr.Mov { dst = reg 2; src = rr 1 };
            Instr.Alu { op = Opcode.Add; dst = reg 3; a = rr 2; b = rr 2 };
            Instr.Out (rr 3);
          ]
          Instr.Halt;
      ]
  in
  let p' = Transform.copy_propagate p in
  (* the add now reads r1 (or even the constant via r1=7 -> imm) *)
  let b = Program.find p' (lbl "e") in
  (match List.nth b.Program.body 2 with
  | Instr.Alu { a = Operand.Imm 7; b = Operand.Imm 7; _ } -> ()
  | Instr.Alu { a = Operand.Reg r1; b = Operand.Reg r2; _ }
    when Reg.index r1 = 1 && Reg.index r2 = 1 ->
      ()
  | op -> Alcotest.failf "copy not propagated: %a" Instr.pp_op op);
  check_bool "semantics preserved" true
    (same_semantics ~mem_fn:(fun () -> Memory.create ~size:16) p p')

let test_copy_prop_kill () =
  (* redefinition of the source kills the copy *)
  let p =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [
            Instr.Mov { dst = reg 2; src = rr 1 };
            Instr.Mov { dst = reg 1; src = im 9 } (* kills r2 -> r1 *);
            Instr.Out (rr 2);
          ]
          Instr.Halt;
      ]
  in
  let p' = Transform.copy_propagate p in
  let b = Program.find p' (lbl "e") in
  (match List.nth b.Program.body 2 with
  | Instr.Out (Operand.Reg r) when Reg.index r = 2 -> ()
  | op -> Alcotest.failf "copy wrongly survived the kill: %a" Instr.pp_op op);
  check_bool "semantics preserved" true
    (same_semantics
       ~regs:[ (reg 1, 5) ]
       ~mem_fn:(fun () -> Memory.create ~size:16)
       p p')

(* ---------- DCE ---------- *)

let test_dce_removes_dead () =
  let p =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [
            Instr.Mov { dst = reg 1; src = im 1 } (* dead *);
            Instr.Mov { dst = reg 1; src = im 2 };
            Instr.Mov { dst = reg 5; src = im 42 } (* dead forever *);
            Instr.Out (rr 1);
          ]
          Instr.Halt;
      ]
  in
  let p' = Transform.dead_code_eliminate p in
  check_int "two ops removed" (Program.size p - 2) (Program.size p');
  check_bool "semantics preserved" true
    (same_semantics ~mem_fn:(fun () -> Memory.create ~size:16) p p')

let test_dce_keeps_branch_compare () =
  (* the Cmp feeding a branch must survive (terminator use) *)
  let p =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [ Instr.Cmp { op = Opcode.Lt; dst = reg 4; a = im 1; b = im 2 } ]
          (Instr.Br { src = reg 4; if_true = lbl "a"; if_false = lbl "b" });
        Program.block (lbl "a") [ Instr.Out (im 1) ] Instr.Halt;
        Program.block (lbl "b") [ Instr.Out (im 0) ] Instr.Halt;
      ]
  in
  let p' = Transform.dead_code_eliminate p in
  check_int "nothing removed" (Program.size p) (Program.size p');
  check_bool "semantics preserved" true
    (same_semantics ~mem_fn:(fun () -> Memory.create ~size:16) p p')

let test_dce_keeps_side_effects () =
  let p =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [
            Instr.Mov { dst = reg 1; src = im 3 };
            Instr.Store { src = reg 1; base = reg 2; off = 0 } (* kept *);
            Instr.Load { dst = reg 9; base = reg 2; off = 0 }
            (* dead dst but unsafe: kept to preserve fault behaviour *);
          ]
          Instr.Halt;
      ]
  in
  let p' = Transform.dead_code_eliminate p in
  check_int "nothing removed" (Program.size p) (Program.size p')

(* ---------- jump threading ---------- *)

let test_jump_thread () =
  let p =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [ Instr.Cmp { op = Opcode.Lt; dst = reg 4; a = im 1; b = im 2 } ]
          (Instr.Br { src = reg 4; if_true = lbl "hop1"; if_false = lbl "x" });
        Program.block (lbl "hop1") [] (Instr.Jmp (lbl "hop2"));
        Program.block (lbl "hop2") [] (Instr.Jmp (lbl "x"));
        Program.block (lbl "x") [ Instr.Out (im 5) ] Instr.Halt;
      ]
  in
  let p' = Transform.jump_thread p in
  check_int "trivial blocks removed" 2 (List.length p'.Program.blocks);
  (match (Program.find p' (lbl "e")).Program.term with
  | Instr.Br { if_true; _ } ->
      check_bool "retargeted through the chain" true (Label.equal if_true (lbl "x"))
  | _ -> Alcotest.fail "terminator changed shape");
  check_bool "semantics preserved" true
    (same_semantics ~mem_fn:(fun () -> Memory.create ~size:16) p p')

(* ---------- preservation on the suite and on random programs ---------- *)

let test_optimize_suite () =
  List.iter
    (fun (w : Dsl.t) ->
      let p' = Transform.optimize w.Dsl.program in
      let p'' = Transform.jump_thread p' in
      check_bool (w.Dsl.name ^ " optimize preserves semantics") true
        (same_semantics ~regs:w.Dsl.regs ~mem_fn:w.Dsl.make_mem w.Dsl.program p');
      check_bool (w.Dsl.name ^ " jump_thread preserves semantics") true
        (same_semantics ~regs:w.Dsl.regs ~mem_fn:w.Dsl.make_mem w.Dsl.program p'');
      check_bool (w.Dsl.name ^ " no growth") true
        (Program.size p' <= Program.size w.Dsl.program))
    Suite.all

let test_unroll_suite () =
  List.iter
    (fun (w : Dsl.t) ->
      List.iter
        (fun factor ->
          let p' = Transform.unroll_loops ~factor w.Dsl.program in
          check_bool
            (Format.asprintf "%s unroll x%d preserves semantics" w.Dsl.name factor)
            true
            (same_semantics ~regs:w.Dsl.regs ~mem_fn:w.Dsl.make_mem w.Dsl.program p');
          check_bool
            (Format.asprintf "%s unroll x%d grows" w.Dsl.name factor)
            true
            (List.length p'.Program.blocks > List.length w.Dsl.program.Program.blocks))
        [ 2; 3 ])
    Suite.all

let test_unroll_compiles () =
  (* unrolled code must still compile and run equivalently on the machine *)
  let w = Suite.find "nroff" in
  let program = Transform.unroll_loops ~factor:2 w.Dsl.program in
  let scalar, profile =
    Driver.profile_of program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
  in
  let compiled =
    Driver.compile ~model:Model.region_pred
      ~machine:Psb_machine.Machine_model.base ~profile program
  in
  let vliw = Leash.run_vliw compiled ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()) in
  Alcotest.(check (list int)) "unrolled output" scalar.Interp.output
    vliw.Psb_machine.Vliw_sim.output

let prop_unroll_preserves =
  QCheck.Test.make ~name:"unroll preserves random-program semantics" ~count:80
    Gen_programs.arb_program (fun g ->
      let p' = Transform.unroll_loops ~factor:2 g.Gen_programs.program in
      let m1 = Gen_programs.make_mem g and m2 = Gen_programs.make_mem g in
      let regs = Gen_programs.regs in
      let r1 = Interp.run ~fuel:500_000 ~regs ~mem:m1 g.Gen_programs.program in
      let r2 = Interp.run ~fuel:500_000 ~regs ~mem:m2 p' in
      QCheck.assume (r1.Interp.outcome <> Interp.Out_of_fuel);
      r1.Interp.outcome = r2.Interp.outcome
      && r1.Interp.output = r2.Interp.output
      && Memory.equal m1 m2)

let prop_optimize_preserves =
  QCheck.Test.make ~name:"optimize preserves random-program semantics"
    ~count:150 Gen_programs.arb_program (fun g ->
      let p' = Transform.optimize g.Gen_programs.program in
      let m1 = Gen_programs.make_mem g and m2 = Gen_programs.make_mem g in
      let regs = Gen_programs.regs in
      let r1 = Interp.run ~fuel:500_000 ~regs ~mem:m1 g.Gen_programs.program in
      let r2 = Interp.run ~fuel:500_000 ~regs ~mem:m2 p' in
      QCheck.assume (r1.Interp.outcome <> Interp.Out_of_fuel);
      r1.Interp.outcome = r2.Interp.outcome
      && r1.Interp.output = r2.Interp.output
      && Memory.equal m1 m2)

let prop_optimized_still_compiles =
  QCheck.Test.make ~name:"optimized programs still compile + run equivalently"
    ~count:60 Gen_programs.arb_program (fun g ->
      let p = Transform.optimize g.Gen_programs.program in
      let regs = Gen_programs.regs in
      let m1 = Gen_programs.make_mem g in
      let scalar = Interp.run ~fuel:500_000 ~regs ~mem:m1 p in
      QCheck.assume (scalar.Interp.outcome = Interp.Halted);
      let _, profile = Driver.profile_of p ~regs ~mem:(Gen_programs.make_mem g) in
      let compiled =
        Driver.compile ~model:Model.region_pred
          ~machine:Psb_machine.Machine_model.base ~profile p
      in
      let m2 = Gen_programs.make_mem g in
      let vliw = Leash.run_vliw compiled ~regs ~mem:m2 in
      vliw.Psb_machine.Vliw_sim.outcome = Interp.Halted
      && vliw.Psb_machine.Vliw_sim.output = scalar.Interp.output
      && Memory.equal m1 m2)

let () =
  Alcotest.run "transform"
    [
      ( "copy-prop",
        [
          Alcotest.test_case "basic" `Quick test_copy_prop_basic;
          Alcotest.test_case "kill" `Quick test_copy_prop_kill;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead" `Quick test_dce_removes_dead;
          Alcotest.test_case "keeps branch compare" `Quick
            test_dce_keeps_branch_compare;
          Alcotest.test_case "keeps side effects" `Quick test_dce_keeps_side_effects;
        ] );
      ("jump-thread", [ Alcotest.test_case "chain" `Quick test_jump_thread ]);
      ( "unroll",
        [
          Alcotest.test_case "benchmark suite" `Quick test_unroll_suite;
          Alcotest.test_case "compiles + runs" `Quick test_unroll_compiles;
          Qc.to_alcotest prop_unroll_preserves;
        ] );
      ( "preservation",
        Alcotest.test_case "benchmark suite" `Quick test_optimize_suite
        :: List.map Qc.to_alcotest
             [ prop_optimize_preserves; prop_optimized_still_compiles ] );
    ]
