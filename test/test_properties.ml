(* Property-based tests of the compiler's structural invariants, checked
   over the random-program generator:

   - unit formation: exit predicates are pairwise disjoint (exactly one
     path out); copies of the same block carry pairwise-disjoint
     predicates; the per-region condition count respects the CCR; every
     (copy, direction) has a step; condition-set instructions carry the
     [alw] predicate;
   - schedules: the independent validator accepts every model's schedule;
     every operation issues no later than each exit it is compatible with
     (nothing needed on a path is left unissued when the path leaves);
     predicated exits wait for their own conditions. *)

open Psb_isa
open Psb_compiler
module Machine_model = Psb_machine.Machine_model
module Cfg = Psb_cfg.Cfg
module Dominance = Psb_cfg.Dominance
module Loops = Psb_cfg.Loops

let machine = Machine_model.base

let units_of g scope =
  let program = g.Gen_programs.program in
  let _, profile =
    Driver.profile_of program ~regs:Gen_programs.regs
      ~mem:(Gen_programs.make_mem g)
  in
  let cfg = Cfg.of_program program in
  let dom = Dominance.compute cfg in
  let loop_heads = Loops.loop_heads cfg dom in
  let params =
    Runit.default_params ~scope ~max_conds:machine.Machine_model.ccr_size
      ~fuse_compare:true ()
  in
  Runit.build_all params cfg profile ~loop_heads ~entry:program.Program.entry

let forall_units g scope f =
  Label.Map.for_all (fun _ u -> f u) (units_of g scope)

let both_scopes ~name prop =
  QCheck.Test.make ~name ~count:80 Gen_programs.arb_program (fun g ->
      prop g Model.Region && prop g Model.Trace)

let prop_exits_disjoint =
  both_scopes ~name:"exit predicates pairwise disjoint" (fun g scope ->
       forall_units g scope (fun u ->
           let xs = Array.to_list u.Runit.exits in
           List.for_all
             (fun (a : Runit.uexit) ->
               List.for_all
                 (fun (b : Runit.uexit) ->
                   a.Runit.xid = b.Runit.xid
                   || Pred.disjoint a.Runit.pred b.Runit.pred)
                 xs)
             xs))

let prop_copies_disjoint =
  both_scopes ~name:"same-block copies pairwise disjoint" (fun g scope ->
       forall_units g scope (fun u ->
           let cs = Array.to_list u.Runit.copies in
           List.for_all
             (fun (a : Runit.copy) ->
               List.for_all
                 (fun (b : Runit.copy) ->
                   a.Runit.cid = b.Runit.cid
                   || (not (Label.equal a.Runit.label b.Runit.label))
                   || Pred.disjoint a.Runit.pred b.Runit.pred)
                 cs)
             cs))

let prop_cond_budget =
  both_scopes ~name:"condition budget respects CCR" (fun g scope ->
       forall_units g scope (fun u ->
           u.Runit.nconds <= machine.Machine_model.ccr_size))

let prop_steps_total =
  both_scopes ~name:"every copy direction has a step" (fun g scope ->
       forall_units g scope (fun u ->
           Array.for_all
             (fun (c : Runit.copy) ->
               let b = Program.find g.Gen_programs.program c.Runit.label in
               let dirs =
                 match b.Program.term with
                 | Instr.Br _ -> [ Runit.Dtrue; Runit.Dfalse ]
                 | Instr.Jmp _ | Instr.Halt -> [ Runit.Djmp ]
               in
               List.for_all
                 (fun d -> Runit.step u c.Runit.cid d <> None)
                 dirs)
             u.Runit.copies))

let prop_setc_always =
  both_scopes ~name:"condition-set instructions are alw" (fun g scope ->
       forall_units g scope (fun u ->
           Array.for_all
             (fun (i : Runit.uinstr) ->
               match i.Runit.op with
               | Instr.Setc _ -> Pred.is_always i.Runit.pred
               | _ -> true)
             u.Runit.instrs))

let prop_validator_all_models =
  QCheck.Test.make ~name:"schedule validator accepts every model" ~count:40
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let _, profile =
        Driver.profile_of program ~regs:Gen_programs.regs
          ~mem:(Gen_programs.make_mem g)
      in
      List.for_all
        (fun model ->
          let compiled = Driver.compile ~model ~machine ~profile program in
          Label.Map.for_all
            (fun _ s -> Sched.check s model machine = Ok ())
            compiled.Driver.schedules)
        (Model.trace_pred_counter :: Model.all))

let prop_completion_before_exits =
  QCheck.Test.make ~name:"ops issue no later than compatible exits" ~count:60
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let _, profile =
        Driver.profile_of program ~regs:Gen_programs.regs
          ~mem:(Gen_programs.make_mem g)
      in
      let compiled =
        Driver.compile ~model:Model.region_pred ~machine ~profile program
      in
      Label.Map.for_all
        (fun _ (s : Sched.t) ->
          let u = s.Sched.unit_ in
          let ni = Array.length u.Runit.instrs in
          Array.for_all
            (fun (i : Runit.uinstr) ->
              match i.Runit.op with
              | Instr.Setc _ | Instr.Nop -> true
              | _ ->
                  Array.for_all
                    (fun (x : Runit.uexit) ->
                      Pred.disjoint i.Runit.dep_pred x.Runit.pred
                      || i.Runit.seq > x.Runit.seq
                      || s.Sched.issue.(i.Runit.uid)
                         <= s.Sched.issue.(ni + x.Runit.xid))
                    u.Runit.exits)
            u.Runit.instrs)
        compiled.Driver.schedules)

let prop_exits_wait_for_conditions =
  QCheck.Test.make ~name:"predicated exits wait for their conditions"
    ~count:60 Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let _, profile =
        Driver.profile_of program ~regs:Gen_programs.regs
          ~mem:(Gen_programs.make_mem g)
      in
      let compiled =
        Driver.compile ~model:Model.region_pred ~machine ~profile program
      in
      Label.Map.for_all
        (fun _ (s : Sched.t) ->
          let u = s.Sched.unit_ in
          let ni = Array.length u.Runit.instrs in
          Array.for_all
            (fun (x : Runit.uexit) ->
              Cond.Set.for_all
                (fun c ->
                  let setc = Runit.setc_uid u c in
                  s.Sched.issue.(ni + x.Runit.xid) >= s.Sched.issue.(setc) + 1)
                (Pred.conds x.Runit.pred))
            u.Runit.exits)
        compiled.Driver.schedules)

(* ----- compile cache ----- *)

let profile_of g =
  let program = g.Gen_programs.program in
  let _, profile =
    Driver.profile_of program ~regs:Gen_programs.regs
      ~mem:(Gen_programs.make_mem g)
  in
  profile

let prop_cache_hit_equals_fresh =
  QCheck.Test.make ~name:"cache hit = fresh compile (structurally)" ~count:40
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let profile = profile_of g in
      let cache = Compile_cache.create () in
      (* every model's cached compile shares one analysis; [fresh] builds
         its own *)
      let analysis = Driver.analyze program in
      List.for_all
        (fun model ->
          let via_cache () =
            Driver.compile ~cache ~analysis ~model ~machine ~profile program
          in
          let first = via_cache () in
          let second = via_cache () in
          let fresh = Driver.compile ~model ~machine ~profile program in
          (* the hit returns the cached value itself... *)
          second == first
          (* ...and that value is indistinguishable from recompiling *)
          && Driver.compiled_equal first fresh)
        Model.all
      && (Compile_cache.stats cache).Compile_cache.hits
         = List.length Model.all)

let prop_cache_keys_distinct =
  QCheck.Test.make ~name:"distinct configurations never collide" ~count:40
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let profile = profile_of g in
      let machines =
        [
          Machine_model.base;
          Machine_model.full_issue ~width:4 ~max_spec_conds:4;
          Machine_model.full_issue ~width:8 ~max_spec_conds:8;
        ]
      in
      let all_keys () =
        List.concat_map
          (fun model ->
            List.concat_map
              (fun machine ->
                List.concat_map
                  (fun single_shadow ->
                    List.concat_map
                      (fun avoid_commit_deps ->
                        List.map
                          (fun verify ->
                            Compile_cache.key ~model ~machine ~single_shadow
                              ~avoid_commit_deps ~verify ~profile program)
                          [ true; false ])
                      [ true; false ])
                  [ true; false ])
              machines)
          (Model.trace_pred_counter :: Model.all)
      in
      let keys = all_keys () in
      (* every (model × machine × flags) combination keys differently,
         and the key is a pure function of its inputs *)
      List.length (List.sort_uniq compare keys) = List.length keys
      && keys = all_keys ())

let prop_cache_program_sensitivity =
  (* two different random programs (their canonical text differs) must
     key differently even under the same model/machine/flags *)
  QCheck.Test.make ~name:"distinct programs never collide"
    ~count:40
    QCheck.(pair Gen_programs.arb_program Gen_programs.arb_program)
    (fun (g1, g2) ->
      QCheck.assume
        (Asm.print g1.Gen_programs.program <> Asm.print g2.Gen_programs.program);
      let k g =
        Compile_cache.key ~model:Model.region_pred ~machine
          ~single_shadow:true ~avoid_commit_deps:false ~verify:true
          ~profile:(profile_of g) g.Gen_programs.program
      in
      k g1 <> k g2)

let prop_cache_verify_flag_regression =
  (* regression: a schedule compiled with verification off must never be
     served from the cache to a verified compile — the flags key apart *)
  QCheck.Test.make ~name:"verify flag keys apart" ~count:40
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let profile = profile_of g in
      let k verify =
        Compile_cache.key ~model:Model.region_pred ~machine
          ~single_shadow:true ~avoid_commit_deps:false ~verify ~profile
          program
      in
      k true <> k false)

(* Hits rest on content keys: a structurally equal copy of the program
   (another value, whether rebuilt from the same blocks or parsed back
   from its text) and a profile from another run of the same training
   input key like the originals. *)
let prop_cache_key_structural =
  QCheck.Test.make ~name:"structurally equal inputs key equal" ~count:40
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let k ?(profile = profile_of g) p =
        Compile_cache.key ~model:Model.region_pred ~machine ~single_shadow:true
          ~avoid_commit_deps:false ~verify:true ~profile p
      in
      let profile = profile_of g in
      let copy = Program.make ~entry:program.Program.entry program.Program.blocks in
      let parsed = Asm.parse_exn (Asm.print program) in
      copy != program && parsed != program
      && k ~profile copy = k ~profile program
      && k ~profile parsed = k ~profile program
      && k program = k ~profile program)

(* An analysis serves only the program value it was built from: a
   structurally equal copy is another program. *)
let test_foreign_analysis_rejected () =
  let open Psb_workloads in
  let w = Suite.find "fib" in
  let program = w.Dsl.program in
  let _, profile =
    Driver.profile_of program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
  in
  let copy = Program.make ~entry:program.Program.entry program.Program.blocks in
  let analysis = Driver.analyze copy in
  match
    Driver.compile ~analysis ~model:Model.region_pred ~machine ~profile program
  with
  | _ -> Alcotest.fail "compile accepted an analysis of another program"
  | exception Invalid_argument _ -> ()

(* Every machine field keys the cache: bumping any single one moves the
   key, so a hit never carries another caller's machine. *)
let test_cache_key_every_machine_field () =
  let open Psb_workloads in
  let w = Suite.find "fib" in
  let _, profile =
    Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
  in
  let key machine =
    Compile_cache.key ~model:Model.region_pred ~machine ~single_shadow:true
      ~avoid_commit_deps:false ~verify:true ~profile w.Dsl.program
  in
  let m = Machine_model.base in
  List.iter
    (fun (field, bumped) ->
      Alcotest.(check bool)
        (field ^ " moves the key") true (key bumped <> key m))
    Machine_model.
      [
        ("issue_width", { m with issue_width = m.issue_width + 1 });
        ("alu_units", { m with alu_units = m.alu_units + 1 });
        ("branch_units", { m with branch_units = m.branch_units + 1 });
        ("load_units", { m with load_units = m.load_units + 1 });
        ("store_units", { m with store_units = m.store_units + 1 });
        ("ccr_size", { m with ccr_size = m.ccr_size + 1 });
        ("load_latency", { m with load_latency = m.load_latency + 1 });
        ("int_latency", { m with int_latency = m.int_latency + 1 });
        ("max_spec_conds", { m with max_spec_conds = m.max_spec_conds + 1 });
        ( "transition_penalty",
          { m with transition_penalty = m.transition_penalty + 1 } );
        ("sb_capacity", { m with sb_capacity = m.sb_capacity + 1 });
        ("dcache_ports", { m with dcache_ports = m.dcache_ports + 1 });
        ("rob_size", { m with rob_size = m.rob_size + 1 });
      ]

let () =
  Alcotest.run "properties"
    [
      ( "runit",
        List.map Qc.to_alcotest
          [
            prop_exits_disjoint;
            prop_copies_disjoint;
            prop_cond_budget;
            prop_steps_total;
            prop_setc_always;
          ] );
      ( "sched",
        List.map Qc.to_alcotest
          [
            prop_validator_all_models;
            prop_completion_before_exits;
            prop_exits_wait_for_conditions;
          ] );
      ( "cache",
        List.map Qc.to_alcotest
          [
            prop_cache_hit_equals_fresh;
            prop_cache_keys_distinct;
            prop_cache_program_sensitivity;
            prop_cache_verify_flag_regression;
            prop_cache_key_structural;
          ]
        @ [
            Alcotest.test_case "every machine field keys apart" `Quick
              test_cache_key_every_machine_field;
            Alcotest.test_case "foreign analysis rejected" `Quick
              test_foreign_analysis_rejected;
          ] );
    ]
