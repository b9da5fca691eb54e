(* Workload tests: every kernel terminates, produces deterministic output,
   exhibits its intended branch-predictability regime (Table 3 shape), and
   compiles correctly: all executable models must reproduce the scalar
   semantics exactly on the full suite. *)

open Psb_isa
open Psb_workloads
open Psb_compiler
module Machine_model = Psb_machine.Machine_model
module Vliw_sim = Psb_machine.Vliw_sim

let check_bool = Alcotest.(check bool)

let scalar_results =
  lazy
    (List.map
       (fun (w : Dsl.t) ->
         (w, Interp.run ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()) w.Dsl.program))
       Suite.all)

let test_all_halt () =
  List.iter
    (fun ((w : Dsl.t), (res : Interp.result)) ->
      check_bool (w.Dsl.name ^ " halts") true (res.Interp.outcome = Interp.Halted);
      check_bool (w.Dsl.name ^ " does work") true (res.Interp.cycles > 5_000);
      check_bool (w.Dsl.name ^ " not huge") true (res.Interp.cycles < 5_000_000);
      check_bool (w.Dsl.name ^ " outputs") true (res.Interp.output <> []))
    (Lazy.force scalar_results)

let test_deterministic () =
  List.iter
    (fun ((w : Dsl.t), (res : Interp.result)) ->
      let again = Interp.run ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()) w.Dsl.program in
      check_bool (w.Dsl.name ^ " deterministic") true
        (Interp.equivalent res again))
    (Lazy.force scalar_results)

let test_predictability_regimes () =
  let acc name n =
    let w = Suite.find name in
    let _, res =
      List.find (fun ((x : Dsl.t), _) -> x.Dsl.name = name) (Lazy.force scalar_results)
    in
    Trace.successive_accuracy (Trace.of_result w.Dsl.program res) n
  in
  (* grep and nroff are the predictable programs (paper: .97/.98 at depth 1,
     .83/.86 at depth 8); the others decay much faster. *)
  check_bool "grep predictable" true (acc "grep" 1 > 0.90);
  check_bool "nroff predictable" true (acc "nroff" 1 > 0.85);
  check_bool "grep deep windows survive" true (acc "grep" 8 > 0.6);
  check_bool "compress decays" true (acc "compress" 8 < 0.6);
  check_bool "eqntott decays" true (acc "eqntott" 8 < 0.7);
  check_bool "li decays" true (acc "li" 8 < 0.7);
  check_bool "compress starts high" true (acc "compress" 1 > 0.6)

let test_table3_monotone () =
  List.iter
    (fun ((w : Dsl.t), res) ->
      let t = Trace.of_result w.Dsl.program res in
      let prev = ref 1.1 in
      for n = 1 to 8 do
        let a = Trace.successive_accuracy t n in
        check_bool
          (Format.asprintf "%s acc(%d)=%.2f non-increasing" w.Dsl.name n a)
          true
          (a <= !prev +. 1e-9);
        prev := a
      done)
    (Lazy.force scalar_results)

(* The heavyweight test: semantic equivalence of compiled code on the
   whole suite, for every executable model. *)
let test_compiled_equivalence model () =
  List.iter
    (fun ((w : Dsl.t), (scalar : Interp.result)) ->
      let _, profile =
        Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
      in
      let compiled =
        Driver.compile ~model ~machine:Machine_model.base ~profile w.Dsl.program
      in
      let mem_scalar = w.Dsl.make_mem () in
      let scalar2 =
        Interp.run ~regs:w.Dsl.regs ~mem:mem_scalar w.Dsl.program
      in
      assert (Interp.equivalent scalar scalar2);
      let mem_vliw = w.Dsl.make_mem () in
      let vliw = Leash.run_vliw compiled ~regs:w.Dsl.regs ~mem:mem_vliw in
      let ctx = w.Dsl.name ^ ":" ^ model.Model.name in
      Alcotest.(check (list int))
        (ctx ^ " output") scalar.Interp.output vliw.Vliw_sim.output;
      check_bool (ctx ^ " halted") true (vliw.Vliw_sim.outcome = Interp.Halted);
      check_bool (ctx ^ " memory") true (Memory.equal mem_scalar mem_vliw);
      check_bool (ctx ^ " faster than scalar") true
        (vliw.Vliw_sim.cycles <= scalar.Interp.cycles))
    (Lazy.force scalar_results)

let test_estimates_all_models () =
  (* Every model's trace-driven estimate, on the base and the 8-issue,
     8-condition machine, replays without error, equals the
     label-walking oracle's whole record, and lands in a sane band
     (faster than 1.2x scalar, slower than 20x). *)
  List.iter
    (fun ((w : Dsl.t), (scalar : Interp.result)) ->
      let _, profile =
        Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
      in
      List.iter
        (fun (machine, model) ->
          let compiled =
            Driver.compile ~model ~machine ~profile w.Dsl.program
          in
          let ctx =
            Printf.sprintf "%s:%s:%d-issue" w.Dsl.name model.Model.name
              machine.Machine_model.issue_width
          in
          let est =
            match
              Cycles_oracle.compare compiled w.Dsl.program
                ~block_trace:scalar.Interp.block_trace
            with
            | Ok est -> est.Cycles.cycles
            | Error e -> Alcotest.failf "%s: %s" ctx e
          in
          check_bool
            (Format.asprintf "%s estimate sane (%d vs scalar %d)" ctx est
               scalar.Interp.cycles)
            true
            (est * 10 > scalar.Interp.cycles && est < scalar.Interp.cycles * 2))
        (List.concat_map
           (fun machine -> List.map (fun model -> (machine, model)) Model.all)
           [
             Machine_model.base;
             Machine_model.full_issue ~width:8 ~max_spec_conds:8;
           ]))
    (Lazy.force scalar_results)

let test_synth_generator () =
  let p = { Synth.default with iterations = 100; depth = 2 } in
  let w = Synth.generate p in
  let res = Interp.run ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()) w.Dsl.program in
  check_bool "synth halts" true (res.Interp.outcome = Interp.Halted);
  (* predictable vs unpredictable synthetic: accuracy tracks taken_prob *)
  let acc prob =
    let w = Synth.generate { p with taken_prob = prob; iterations = 400 } in
    let res = Interp.run ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()) w.Dsl.program in
    Trace.prediction_accuracy (Trace.of_result w.Dsl.program res)
  in
  check_bool "p=0.95 predictable" true (acc 0.95 > 0.9);
  check_bool "p=0.5 unpredictable" true (acc 0.5 < 0.75)

(* ----- Synth.generate over its whole parameter space: every sweep
   point must halt under the interpreter and round-trip through the
   assembler (the sweep experiments and the docs both rely on it) ----- *)

let arb_synth_params =
  let gen st =
    {
      Synth.iterations = 1 + QCheck.Gen.int_bound 199 st;
      depth = 1 + QCheck.Gen.int_bound 5 st;
      taken_prob = QCheck.Gen.float_bound_inclusive 1.0 st;
      work_per_arm = 1 + QCheck.Gen.int_bound 4 st;
      seed = QCheck.Gen.int_bound 10_000 st;
    }
  in
  let print (p : Synth.params) =
    Printf.sprintf "{iterations=%d; depth=%d; taken_prob=%.3f; work_per_arm=%d; seed=%d}"
      p.Synth.iterations p.Synth.depth p.Synth.taken_prob p.Synth.work_per_arm
      p.Synth.seed
  in
  QCheck.make ~print gen

let prop_synth_halts_and_roundtrips =
  QCheck.Test.make ~name:"Synth.generate halts + asm round-trips" ~count:100
    arb_synth_params (fun p ->
      let w = Synth.generate p in
      let res =
        Interp.run ~fuel:2_000_000 ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
          w.Dsl.program
      in
      if res.Interp.outcome <> Interp.Halted then
        QCheck.Test.fail_reportf "%s: %a" (Synth.name_of p) Interp.pp_outcome
          res.Interp.outcome;
      let text = Asm.print w.Dsl.program in
      match Asm.parse text with
      | Error m -> QCheck.Test.fail_reportf "parse failed: %s" m
      | Ok prog -> Asm.print prog = text)

let () =
  Alcotest.run "workloads"
    [
      ( "scalar",
        [
          Alcotest.test_case "all halt" `Quick test_all_halt;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "predictability regimes" `Quick
            test_predictability_regimes;
          Alcotest.test_case "table3 monotone" `Quick test_table3_monotone;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "region-pred equivalence" `Slow
            (test_compiled_equivalence Model.region_pred);
          Alcotest.test_case "trace-pred equivalence" `Slow
            (test_compiled_equivalence Model.trace_pred);
          Alcotest.test_case "region-sched equivalence" `Slow
            (test_compiled_equivalence Model.region_sched);
          Alcotest.test_case "estimates all models" `Slow
            test_estimates_all_models;
        ] );
      ( "synth",
        Alcotest.test_case "generator" `Quick test_synth_generator
        :: List.map Qc.to_alcotest [ prop_synth_halts_and_roundtrips ] );
    ]
