(* Compiler tests: unit (region/trace) formation, dependence-respecting
   schedules, and — most importantly — end-to-end semantic equivalence:
   programs compiled for the predicating machine must produce exactly the
   scalar interpreter's observable behaviour (output, outcome, memory),
   including programs whose speculative loads fault. *)

open Psb_isa
open Psb_compiler
module Machine_model = Psb_machine.Machine_model
module Vliw_sim = Psb_machine.Vliw_sim
module Cfg = Psb_cfg.Cfg

let reg = Reg.make
let lbl = Label.make
let rr i = Operand.reg (reg i)
let im i = Operand.imm i
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mov d s = Instr.Mov { dst = reg d; src = s }
let add d a b = Instr.Alu { op = Opcode.Add; dst = reg d; a; b }
let cmp d op a b = Instr.Cmp { op; dst = reg d; a; b }
let load d b off = Instr.Load { dst = reg d; base = reg b; off }
let store s b off = Instr.Store { src = reg s; base = reg b; off }
let out o = Instr.Out o
let br s t f = Instr.Br { src = reg s; if_true = lbl t; if_false = lbl f }
let jmp l = Instr.Jmp (lbl l)
let block name body term = Program.block (lbl name) body term

(* Diamond inside a loop; sums different constants depending on parity. *)
let diamond_loop =
  Program.make ~entry:(lbl "entry")
    [
      block "entry" [ mov 1 (im 0); mov 2 (im 0); mov 9 (im 6) ] (jmp "head");
      block "head"
        [ cmp 4 Opcode.Lt (rr 1) (im 3) ]
        (br 4 "then" "else");
      block "then" [ add 2 (rr 2) (im 10) ] (jmp "join");
      block "else" [ add 2 (rr 2) (im 100) ] (jmp "join");
      block "join"
        [ add 1 (rr 1) (im 1); cmp 5 Opcode.Lt (rr 1) (rr 9) ]
        (br 5 "head" "exit");
      block "exit" [ out (rr 2) ] Instr.Halt;
    ]

(* NULL-terminated linked-list sum: the §2.1 motivating pattern. The
   speculative next-pointer dereference faults on the last iteration and
   must squash silently. List nodes: [addr] = value, [addr+1] = next
   (0 terminates; node addresses start at 8 so 0 is "NULL" but address 0
   itself is made invalid by placing nodes high and using offset -8). *)
let list_sum =
  Program.make ~entry:(lbl "entry")
    [
      (* r1 = head pointer, r2 = sum *)
      block "entry" [ mov 2 (im 0) ] (jmp "head");
      block "head"
        [ cmp 4 Opcode.Ne (rr 1) (im 0) ]
        (br 4 "body" "done");
      block "body"
        [
          load 3 1 0 (* value *);
          add 2 (rr 2) (rr 3);
          load 1 1 1 (* next; speculating this dereferences NULL-ish *);
        ]
        (jmp "head");
      block "done" [ out (rr 2) ] Instr.Halt;
    ]

let list_mem ~nodes =
  (* place nodes at 8, 16, 24, ...; NULL = 0 would read mem[0]/mem[1],
     which are valid addresses — to make NULL deref actually fault we put
     the list high and leave address 0..7 unmapped demand pages? Fatal is
     too strong; use values such that next=0 and mem[0..1] are readable
     zeros: the speculative deref then reads garbage 0 and squashes. To
     exercise a *fault*, a variant uses negative NULL. *)
  let mem = Memory.create ~size:1024 in
  for i = 0 to nodes - 1 do
    let addr = 8 + (8 * i) in
    Memory.poke mem addr (i + 1);
    Memory.poke mem (addr + 1) (if i = nodes - 1 then 0 else addr + 8)
  done;
  mem

(* Variant where NULL is represented by -1: the speculative dereference of
   the last next-pointer faults (out of bounds) and must be squashed. *)
let list_sum_nullfault =
  Program.make ~entry:(lbl "entry")
    [
      block "entry" [ mov 2 (im 0) ] (jmp "head");
      block "head"
        [ cmp 4 Opcode.Ge (rr 1) (im 0) ]
        (br 4 "body" "done");
      block "body"
        [ load 3 1 0; add 2 (rr 2) (rr 3); load 1 1 1 ]
        (jmp "head");
      block "done" [ out (rr 2) ] Instr.Halt;
    ]

let list_mem_nullfault ~nodes =
  let mem = Memory.create ~size:1024 in
  for i = 0 to nodes - 1 do
    let addr = 8 + (8 * i) in
    Memory.poke mem addr (i + 1);
    Memory.poke mem (addr + 1) (if i = nodes - 1 then -1 else addr + 8)
  done;
  mem

(* Demand paging: a loop that touches successive pages; speculative loads
   fault on unmapped pages and commit → exercises recovery in compiled
   code. *)
let pager =
  Program.make ~entry:(lbl "entry")
    [
      block "entry" [ mov 1 (im 0); mov 2 (im 0); mov 9 (im 6) ] (jmp "head");
      block "head"
        [ cmp 4 Opcode.Lt (rr 1) (rr 9) ]
        (br 4 "body" "done");
      block "body"
        [
          Instr.Alu { op = Opcode.Mul; dst = reg 5; a = rr 1; b = im 70 };
          add 5 (rr 5) (im 256);
          load 3 5 0;
          add 2 (rr 2) (rr 3);
          add 1 (rr 1) (im 1);
        ]
        (jmp "head");
      block "done" [ out (rr 2) ] Instr.Halt;
    ]

let pager_mem () = Memory.create_demand ~size:2048 ~unmapped:(256, 1024)

(* Store-heavy diamond: speculative stores on both arms. *)
let store_diamond =
  Program.make ~entry:(lbl "entry")
    [
      block "entry" [ mov 1 (im 0); mov 9 (im 8) ] (jmp "head");
      block "head"
        [
          Instr.Alu { op = Opcode.And; dst = reg 4; a = rr 1; b = im 1 };
        ]
        (br 4 "odd" "even");
      block "odd" [ store 1 1 100 ] (jmp "join");
      block "even" [ store 1 1 200 ] (jmp "join");
      block "join"
        [ add 1 (rr 1) (im 1); cmp 5 Opcode.Lt (rr 1) (rr 9) ]
        (br 5 "head" "exit");
      block "exit" [ out (rr 1) ] Instr.Halt;
    ]

(* ---------- helpers ---------- *)

let machine = Machine_model.base

let compile_with model ?(machine = machine) program ~regs ~mem_fn =
  let _, profile = Driver.profile_of program ~regs ~mem:(mem_fn ()) in
  Driver.compile ~model ~machine ~profile program

let check_equivalent ?(name = "") model program ~regs ~mem_fn =
  let compiled = compile_with model program ~regs ~mem_fn in
  let mem_scalar = mem_fn () in
  let scalar = Interp.run ~regs ~mem:mem_scalar program in
  let mem_vliw = mem_fn () in
  let vliw = Leash.run_vliw compiled ~regs ~mem:mem_vliw in
  let ctx = name ^ ":" ^ model.Model.name in
  Alcotest.(check (list int)) (ctx ^ " output") scalar.Interp.output vliw.Vliw_sim.output;
  check_bool (ctx ^ " outcome matches") true
    (match (scalar.Interp.outcome, vliw.Vliw_sim.outcome) with
    | Interp.Halted, Interp.Halted -> true
    | Interp.Fatal f1, Interp.Fatal f2 -> Fault.equal f1 f2
    | _ -> false);
  check_bool (ctx ^ " memory equal") true (Memory.equal mem_scalar mem_vliw);
  (compiled, scalar, vliw)

let exec_models = [ Model.region_pred; Model.trace_pred; Model.region_sched ]

(* ---------- unit formation ---------- *)

let test_region_formation () =
  let regs = [] in
  let mem_fn () = Memory.create ~size:64 in
  let _, profile = Driver.profile_of diamond_loop ~regs ~mem:(mem_fn ()) in
  let cfg = Cfg.of_program diamond_loop in
  let params = Runit.default_params ~scope:Model.Region ~max_conds:4 () in
  let avoid = Label.Set.of_list [ lbl "entry"; lbl "head" ] in
  let u = Runit.build params cfg profile ~header:(lbl "head") ~avoid in
  (* head, then, else, join, exit — join's two path predicates merge
     (c0 | !c0 → alw, the equivalent-block rule). *)
  check_int "five copies" 5 (Array.length u.Runit.copies);
  check_int "two conditions" 2 u.Runit.nconds;
  let join_copy =
    Array.to_list u.Runit.copies
    |> List.find (fun c -> Label.equal c.Runit.label (lbl "join"))
  in
  check_bool "join predicate merged to alw" true
    (Pred.is_always join_copy.Runit.pred);
  (* exits: the loop back edge (head is a seed) and the program halt. *)
  check_int "two exits" 2 (Array.length u.Runit.exits);
  Alcotest.(check (list string)) "exit targets" [ "head" ]
    (List.map Label.name (Runit.exit_targets u));
  check_bool "halt exit present" true
    (Array.exists (fun (x : Runit.uexit) -> x.Runit.target = None) u.Runit.exits)

let test_trace_formation () =
  let regs = [] in
  let mem_fn () = Memory.create ~size:64 in
  let _, profile = Driver.profile_of diamond_loop ~regs ~mem:(mem_fn ()) in
  let cfg = Cfg.of_program diamond_loop in
  let params = Runit.default_params ~scope:Model.Trace ~max_conds:4 () in
  let avoid = Label.Set.of_list [ lbl "entry"; lbl "head" ] in
  let u = Runit.build params cfg profile ~header:(lbl "head") ~avoid in
  (* The likely path: head → then → join (then taken 3 of 6 iterations —
     at 50/50 the tie goes to if_true). Single copy per block. *)
  check_bool "at most one copy per label" true
    (let labels = Array.to_list u.Runit.copies |> List.map (fun c -> c.Runit.label) in
     List.length labels = List.length (List.sort_uniq Label.compare labels));
  (* off-trace targets become exits *)
  check_bool "else is an exit target" true
    (List.exists (Label.equal (lbl "else")) (Runit.exit_targets u))

(* A profile indexes the blocks of the program it was tabulated over, so
   unit formation refuses one made from another program value, even an
   equal one. *)
let test_foreign_profile () =
  let profile_of program =
    snd (Driver.profile_of program ~regs:[] ~mem:(Memory.create ~size:64))
  in
  let copy = Program.map_blocks Fun.id diamond_loop in
  List.iter
    (fun (what, profile) ->
      Alcotest.check_raises what
        (Invalid_argument "Runit: profile built from another program's CFG")
        (fun () ->
          ignore
            (Driver.compile ~verify:false ~model:Model.region_pred ~machine
               ~profile diamond_loop)))
    [
      ("another program's profile", profile_of list_sum);
      ("an equal copy's profile", profile_of copy);
    ]

let test_units_cover_program () =
  List.iter
    (fun (model : Model.t) ->
      let compiled =
        compile_with model diamond_loop ~regs:[]
          ~mem_fn:(fun () -> Memory.create ~size:64)
      in
      check_bool
        (model.Model.name ^ " has unit for entry")
        true
        (Label.Map.mem (lbl "entry") compiled.Driver.units))
    Model.all

(* ---------- schedule validity ---------- *)

let test_schedules_valid_all_models () =
  List.iter
    (fun (model : Model.t) ->
      let compiled =
        compile_with model diamond_loop ~regs:[]
          ~mem_fn:(fun () -> Memory.create ~size:64)
      in
      (* Driver.compile runs Sched.check internally; also sanity: every
         schedule is nonempty and ends with an exit. *)
      Label.Map.iter
        (fun _ (s : Sched.t) ->
          check_bool (model.Model.name ^ " schedule has length") true
            (s.Sched.length >= 1))
        compiled.Driver.schedules)
    Model.all

(* ---------- end-to-end equivalence ---------- *)

let test_equiv_diamond () =
  List.iter
    (fun m ->
      ignore
        (check_equivalent ~name:"diamond" m diamond_loop ~regs:[]
           ~mem_fn:(fun () -> Memory.create ~size:64)))
    exec_models

let test_equiv_list_sum () =
  List.iter
    (fun m ->
      ignore
        (check_equivalent ~name:"list" m list_sum
           ~regs:[ (reg 1, 8) ]
           ~mem_fn:(fun () -> list_mem ~nodes:10)))
    exec_models

let test_equiv_list_nullfault () =
  (* The speculative next-dereference faults out-of-bounds on the last
     iteration; its predicate turns false and the fault must vanish. *)
  List.iter
    (fun m ->
      let _, scalar, vliw =
        check_equivalent ~name:"list-null" m list_sum_nullfault
          ~regs:[ (reg 1, 8) ]
          ~mem_fn:(fun () -> list_mem_nullfault ~nodes:10)
      in
      check_bool "scalar halted" true (scalar.Interp.outcome = Interp.Halted);
      Alcotest.(check (list int)) "sum" [ 55 ] vliw.Vliw_sim.output)
    exec_models

let test_equiv_pager () =
  List.iter
    (fun m ->
      let _, scalar, vliw =
        check_equivalent ~name:"pager" m pager ~regs:[] ~mem_fn:pager_mem
      in
      check_bool "faults were handled" true (scalar.Interp.faults_handled > 0);
      check_int "same number of faults handled" scalar.Interp.faults_handled
        vliw.Vliw_sim.faults_handled)
    exec_models

let test_equiv_store_diamond () =
  List.iter
    (fun m ->
      ignore
        (check_equivalent ~name:"stores" m store_diamond ~regs:[]
           ~mem_fn:(fun () -> Memory.create ~size:512)))
    exec_models

let test_infinite_shadow_equiv () =
  (* The infinite-shadow ablation must not change semantics. *)
  let compiled =
    let _, profile =
      Driver.profile_of diamond_loop ~regs:[] ~mem:(Memory.create ~size:64)
    in
    Driver.compile ~single_shadow:false ~model:Model.region_pred ~machine
      ~profile diamond_loop
  in
  let mem = Memory.create ~size:64 in
  let vliw =
    Leash.run_vliw ~regfile_mode:Psb_machine.Regfile.Infinite compiled
      ~regs:[] ~mem
  in
  Alcotest.(check (list int)) "output" [ 330 ] vliw.Vliw_sim.output

(* ---------- cycle accounting ---------- *)

let test_speedup_sane () =
  (* The predicated machine should never be slower than scalar on the
     diamond loop, and the estimate should be within a reasonable band of
     the measured cycles. *)
  let regs = [] in
  let mem_fn () = Memory.create ~size:64 in
  let scalar = Interp.run ~regs ~mem:(mem_fn ()) diamond_loop in
  let compiled = compile_with Model.region_pred diamond_loop ~regs ~mem_fn in
  let vliw = Leash.run_vliw compiled ~regs ~mem:(mem_fn ()) in
  check_bool "VLIW no slower than scalar" true
    (vliw.Vliw_sim.cycles <= scalar.Interp.cycles);
  let est =
    Driver.estimate_cycles compiled diamond_loop
      ~block_trace:scalar.Interp.block_trace
  in
  let ratio = float_of_int est /. float_of_int vliw.Vliw_sim.cycles in
  check_bool
    (Format.asprintf "estimate within band (est %d, measured %d)" est
       vliw.Vliw_sim.cycles)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_model_ordering_diamond () =
  (* On a branch-unpredictable diamond, region predicating should beat the
     global model. *)
  let regs = [] in
  let mem_fn () = Memory.create ~size:64 in
  let scalar = Interp.run ~regs ~mem:(mem_fn ()) diamond_loop in
  let est model =
    let c = compile_with model diamond_loop ~regs ~mem_fn in
    Driver.estimate_cycles c diamond_loop ~block_trace:scalar.Interp.block_trace
  in
  let global = est Model.global and rp = est Model.region_pred in
  check_bool
    (Format.asprintf "region-pred (%d) <= global (%d)" rp global)
    true (rp <= global)

(* ---------- trace replay failures ----------

   Hand-made index traces over [diamond_loop]'s region-pred units: the
   entry unit exits to the loop head, whose unit holds both arms and the
   join. Each broken trace raises one [Failure] naming what went wrong. *)

let diamond_region_pred =
  lazy
    (compile_with Model.region_pred diamond_loop ~regs:[]
       ~mem_fn:(fun () -> Memory.create ~size:64))

let diamond_index l =
  Decoded.block_index (Decoded.of_program diamond_loop) (lbl l)

let replay labels =
  ignore
    (Driver.estimate_cycles (Lazy.force diamond_region_pred) diamond_loop
       ~block_trace:(Array.of_list (List.map diamond_index labels)))

let test_replay_failures () =
  let fails name trace msg =
    Alcotest.check_raises name (Failure msg) (fun () -> replay trace)
  in
  let ends_inside ~unit_ ~at =
    Printf.sprintf
      "Cycles.measure: trace ends inside unit %s at %s (an estimate needs the \
       trace of a halted run)"
      unit_ at
  in
  fails "starts at a block that heads no unit" [ "then" ]
    "Cycles.measure: no unit for then";
  fails "copy does not match the trace" [ "entry"; "head"; "then"; "else" ]
    "Cycles.measure: unit head expected join, trace has else";
  fails "next block is neither branch arm" [ "entry"; "head"; "join" ]
    "Cycles.measure: trace does not follow the branch";
  fails "trace ends at a branch" [ "entry"; "head" ]
    (ends_inside ~unit_:"head" ~at:"head");
  fails "trace ends after an in-unit jump" [ "entry"; "head"; "then" ]
    (ends_inside ~unit_:"head" ~at:"then");
  Alcotest.check_raises "index outside the program"
    (Invalid_argument "Cycles.measure: block index 6 outside the program")
    (fun () ->
      ignore
        (Driver.estimate_cycles (Lazy.force diamond_region_pred) diamond_loop
           ~block_trace:[| diamond_index "entry"; 6 |]));
  (* the run's own trace replays *)
  let scalar = Interp.run ~regs:[] ~mem:(Memory.create ~size:64) diamond_loop in
  check_bool "halted trace replays" true
    (Driver.estimate_cycles (Lazy.force diamond_region_pred) diamond_loop
       ~block_trace:scalar.Interp.block_trace
    > 0)

(* A fatal run stops inside a block, so its trace cannot be replayed:
   every model's estimate raises [Failure], never another exception. *)
let prop_fatal_trace_fails =
  let shape = { Gen_programs.default_shape with fault_prob = 0.3 } in
  QCheck.Test.make ~name:"estimate of a fatal trace raises Failure" ~count:60
    (Gen_programs.arb ~shape ()) (fun g ->
      let program = g.Gen_programs.program in
      let regs = Gen_programs.regs in
      let scalar =
        Interp.run ~fuel:500_000 ~regs ~mem:(Gen_programs.make_mem g) program
      in
      QCheck.assume
        (match scalar.Interp.outcome with Interp.Fatal _ -> true | _ -> false);
      let _, profile =
        Driver.profile_of program ~regs ~mem:(Gen_programs.make_mem g)
      in
      List.for_all
        (fun model ->
          let compiled =
            Driver.compile ~verify:false ~model ~machine ~profile program
          in
          match
            Driver.estimate_cycles compiled program
              ~block_trace:scalar.Interp.block_trace
          with
          | cycles ->
              QCheck.Test.fail_reportf "%s: estimate %d, expected Failure"
                model.Model.name cycles
          | exception Failure _ -> true
          | exception e ->
              QCheck.Test.fail_reportf "%s: raised %s" model.Model.name
                (Printexc.to_string e))
        Model.all)

(* ---------- schedule pins ----------

   One MD5 over every unit's header, issue cycles and length, and (for
   executable models) the emitted region text, which prints each op's
   shadow reads. It covers the suite and 100 generated programs (half of
   them with a nested loop), every model, four machines and both values
   of each compile flag, so a rewrite of the dependence graph or the list
   scheduler that moves a single op shows here. *)

let pin_programs =
  lazy
    (List.map
       (fun (w : Psb_workloads.Dsl.t) ->
         let program = w.Psb_workloads.Dsl.program in
         ( w.Psb_workloads.Dsl.name,
           program,
           snd
             (Driver.profile_of program ~regs:w.Psb_workloads.Dsl.regs
                ~mem:(w.Psb_workloads.Dsl.make_mem ())) ))
       Psb_workloads.Suite.all
    @ List.init 100 (fun i ->
          let shape =
            if i mod 2 = 0 then Psb_proptest.Gen.default_shape
            else { Psb_proptest.Gen.default_shape with Psb_proptest.Gen.nesting = 2 }
          in
          let g = Psb_proptest.Gen.gen shape (Random.State.make [| 0x5c4ed; i |]) in
          let program = g.Psb_proptest.Gen.program in
          ( Printf.sprintf "gen%d" i,
            program,
            snd
              (Driver.profile_of program ~regs:Psb_proptest.Gen.regs
                 ~mem:(Psb_proptest.Gen.make_mem g)) )))

let pin_machines =
  [
    ("base", Machine_model.base);
    ("full4", Machine_model.full_issue ~width:4 ~max_spec_conds:4);
    ("full8", Machine_model.full_issue ~width:8 ~max_spec_conds:8);
    ("base-k1", { Machine_model.base with Machine_model.max_spec_conds = 1 });
  ]

(* every machine with the default flags, then the other three flag
   pairs on the base machine *)
let pin_configs =
  List.map (fun (name, machine) -> (name, machine, true, false)) pin_machines
  @ List.map
      (fun (ss, acd) -> ("base", Machine_model.base, ss, acd))
      [ (false, false); (true, true); (false, true) ]

let schedule_pin_lines () =
  List.concat_map
    (fun (pname, program, profile) ->
      let analysis = Driver.analyze program in
      List.concat_map
        (fun (model : Model.t) ->
          List.map
            (fun (mname, machine, single_shadow, avoid_commit_deps) ->
              let b = Buffer.create 1024 in
              Printf.bprintf b "%s %s %s ss=%b acd=%b" pname model.Model.name
                mname single_shadow avoid_commit_deps;
              (match
                 Driver.compile ~analysis ~verify:false ~single_shadow
                   ~avoid_commit_deps ~model ~machine ~profile program
               with
              | c ->
                  Label.Map.iter
                    (fun header (s : Sched.t) ->
                      Printf.bprintf b "|%s:%d:" (Label.name header)
                        s.Sched.length;
                      Array.iter (Printf.bprintf b "%d,") s.Sched.issue)
                    c.Driver.schedules;
                  Option.iter
                    (fun (code : Psb_machine.Pcode.t) ->
                      List.iter
                        (fun r ->
                          Buffer.add_string b
                            (Format.asprintf "|%a" Psb_machine.Pcode.pp_region r))
                        code.Psb_machine.Pcode.regions)
                    c.Driver.pcode
              | exception e -> Printf.bprintf b " raised %s" (Printexc.to_string e));
              Digest.to_hex (Digest.string (Buffer.contents b)))
            pin_configs)
        (Model.trace_pred_counter :: Model.all))
    (Lazy.force pin_programs)

let schedule_pin_digest = "2a620ad3819278bcb3730675546e2c4b"

let test_schedule_pin () =
  let lines = schedule_pin_lines () in
  Alcotest.(check string)
    (Printf.sprintf "digest of %d compiles" (List.length lines))
    schedule_pin_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* ---------- unit-formation pin ----------

   One MD5 over every unit [Runit.build_all] forms for the pin programs
   under every distinct [Runit.params] the schedule pin's models and
   configurations give: each unit's header, copies, instructions, exits,
   steps in (copy, direction) order, condition-set uids and condition
   count. The schedule pin sees only what the executable models emit;
   this one also holds the steps and the estimate-only models' units. *)

let unit_pin_params =
  List.concat_map
    (fun (model : Model.t) ->
      List.map
        (fun (_, machine, _, avoid_commit_deps) ->
          Runit.default_params ~scope:model.Model.scope
            ~max_conds:machine.Machine_model.ccr_size
            ~fuse_compare:model.Model.branch_elim ~avoid_commit_deps ())
        pin_configs)
    (Model.trace_pred_counter :: Model.all)
  |> List.sort_uniq compare

let unit_pin_text b (u : Runit.t) =
  let pred p = Format.asprintf "%a" Pred.pp p in
  Printf.bprintf b "|unit %s nconds=%d" (Label.name u.Runit.header)
    u.Runit.nconds;
  Array.iter
    (fun (c : Runit.copy) ->
      Printf.bprintf b ";copy %d %s %s" c.Runit.cid (Label.name c.Runit.label)
        (pred c.Runit.pred))
    u.Runit.copies;
  Array.iter
    (fun (i : Runit.uinstr) ->
      Printf.bprintf b ";i%d %s ? %s dep %s seq %d" i.Runit.uid
        (pred i.Runit.pred)
        (Format.asprintf "%a" Instr.pp_op i.Runit.op)
        (pred i.Runit.dep_pred) i.Runit.seq)
    u.Runit.instrs;
  Array.iter
    (fun (x : Runit.uexit) ->
      Printf.bprintf b ";x%d %s -> %s from %s seq %d" x.Runit.xid
        (pred x.Runit.pred)
        (match x.Runit.target with Some l -> Label.name l | None -> "halt")
        (match x.Runit.from_branch with
        | Some c -> Format.asprintf "%a" Cond.pp c
        | None -> "-")
        x.Runit.seq)
    u.Runit.exits;
  Array.iter
    (fun (c : Runit.copy) ->
      List.iter
        (fun (d, dn) ->
          match Runit.step u c.Runit.cid d with
          | None -> ()
          | Some (Runit.Goto k) -> Printf.bprintf b ";s%d%s goto %d" c.Runit.cid dn k
          | Some (Runit.Take_exit x) ->
              Printf.bprintf b ";s%d%s exit %d" c.Runit.cid dn x)
        [ (Runit.Dtrue, "t"); (Runit.Dfalse, "f"); (Runit.Djmp, "j") ])
    u.Runit.copies;
  Printf.bprintf b ";setc";
  Array.iter (Printf.bprintf b " %d") u.Runit.setc_of_cond

let unit_pin_lines () =
  List.concat_map
    (fun (pname, program, profile) ->
      let analysis = Driver.analyze program in
      List.mapi
        (fun k params ->
          let b = Buffer.create 4096 in
          Printf.bprintf b "%s params%d" pname k;
          (match
             Runit.build_all params analysis.Driver.cfg profile
               ~loop_heads:analysis.Driver.loop_heads
               ~entry:program.Program.entry
           with
          | units -> Label.Map.iter (fun _ u -> unit_pin_text b u) units
          | exception e -> Printf.bprintf b " raised %s" (Printexc.to_string e));
          Digest.to_hex (Digest.string (Buffer.contents b)))
        unit_pin_params)
    (Lazy.force pin_programs)

let unit_pin_digest = "3e73cd77d96e04a4c125d560c34cebdb"

let test_unit_pin () =
  let lines = unit_pin_lines () in
  Alcotest.(check string)
    (Printf.sprintf "digest of %d formations" (List.length lines))
    unit_pin_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* ---------- profile-fingerprint pin ----------

   One MD5 over [Branch_predict.fingerprint] of every pin program's
   training profile and of its backward-taken heuristic predictor: the
   bytes the compile-cache key reads of a profile. The label-keyed
   predictor that tabulation replaced gives the same digest. *)

let fingerprint_pin_digest = "c5a179c7cf9beb1c28d9ea84267a9ad8"

let test_fingerprint_pin () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (_, program, profile) ->
      Psb_cfg.Branch_predict.fingerprint b profile;
      let cfg = Cfg.of_program program in
      Psb_cfg.Branch_predict.fingerprint b
        (Psb_cfg.Branch_predict.heuristic cfg (Psb_cfg.Dominance.compute cfg)))
    (Lazy.force pin_programs);
  Alcotest.(check string)
    (Printf.sprintf "digest of %d bytes" (Buffer.length b))
    fingerprint_pin_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---------- unit memo ----------

   Compiles that share an analysis form their units once per (params,
   profile): the suite and 20 generated programs, each under its
   training profile on the base machine. *)

let sample_programs =
  lazy
    (List.map
       (fun (w : Psb_workloads.Dsl.t) ->
         let profile () =
           snd
             (Driver.profile_of w.Psb_workloads.Dsl.program
                ~regs:w.Psb_workloads.Dsl.regs
                ~mem:(w.Psb_workloads.Dsl.make_mem ()))
         in
         (w.Psb_workloads.Dsl.name, w.Psb_workloads.Dsl.program, profile))
       (Psb_workloads.Suite.all
       @ List.init 20 (fun i ->
             Psb_proptest.Gen.to_dsl ~name:(Printf.sprintf "gen%d" i)
               (Psb_proptest.Gen.gen Psb_proptest.Gen.default_shape
                  (Random.State.make [| 0x3e30; i |])))))

let executable_models = List.filter (fun (m : Model.t) -> m.Model.executable) Model.all

let compile_unverified ?analysis ?(avoid_commit_deps = false)
    ?(machine = Machine_model.base) ~profile program model =
  Driver.compile ?analysis ~verify:false ~avoid_commit_deps ~model ~machine
    ~profile program

let test_memo_shares_units () =
  List.iter
    (fun (name, program, profile_of) ->
      let profile = profile_of () in
      let analysis = Driver.analyze program in
      let units ?avoid_commit_deps ?machine ?(profile = profile) model =
        (compile_unverified ~analysis ?avoid_commit_deps ?machine ~profile program
           model)
          .Driver.units
      in
      let shared = units Model.region_pred in
      List.iter
        (fun (m : Model.t) ->
          check_bool
            (Printf.sprintf "%s: %s shares region-pred's units" name m.Model.name)
            true
            (units m == shared))
        [ Model.region_sched; Model.guarded; Model.region_pred ];
      let apart what u =
        check_bool (Printf.sprintf "%s: %s forms its own units" name what) true
          (u != shared)
      in
      apart "trace-pred" (units Model.trace_pred);
      (* the same training run again: an equal profile, another value *)
      apart "another profile value" (units ~profile:(profile_of ()) Model.region_pred);
      apart "another ccr_size"
        (units
           ~machine:{ Machine_model.base with Machine_model.ccr_size = 6 }
           Model.region_pred);
      apart "avoid_commit_deps" (units ~avoid_commit_deps:true Model.region_pred))
    (Lazy.force sample_programs)

let test_memo_equals_cold () =
  List.iter
    (fun (name, program, profile_of) ->
      let profile = profile_of () in
      let analysis = Driver.analyze program in
      List.iter
        (fun (m : Model.t) ->
          check_bool
            (Printf.sprintf "%s: memoised %s equals a cold compile" name m.Model.name)
            true
            (Driver.compiled_equal
               (compile_unverified ~analysis ~profile program m)
               (compile_unverified ~profile program m)))
        executable_models)
    (Lazy.force sample_programs)

let test_memo_across_domains () =
  Psb_parallel.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (name, program, profile_of) ->
          let profile = profile_of () in
          let sequential =
            let analysis = Driver.analyze program in
            List.map (compile_unverified ~analysis ~profile program) executable_models
          in
          let analysis = Driver.analyze program in
          let parallel =
            Psb_parallel.Pool.map_exn pool
              (compile_unverified ~analysis ~profile program)
              executable_models
          in
          List.iter2
            (fun (m : Model.t) (a, b) ->
              check_bool
                (Printf.sprintf "%s: %s on the pool equals the sequential compile"
                   name m.Model.name)
                true (Driver.compiled_equal a b))
            executable_models
            (List.combine sequential parallel);
          (* racing misses publish one map *)
          let units m =
            (List.assq m (List.combine executable_models parallel)).Driver.units
          in
          check_bool (name ^ ": one shared map after the race") true
            (units Model.region_sched == units Model.region_pred
            && units Model.guarded == units Model.region_pred))
        (Lazy.force sample_programs))

(* ---------- the conditions a predicate can name ----------

   A predicate names conditions c0 .. c(word_bits - 1), so a machine
   with more CCR entries is refused up front, before unit formation
   could number a condition past the word; one with exactly that many
   compiles. *)

let test_ccr_past_word () =
  let profile =
    snd (Driver.profile_of diamond_loop ~regs:[] ~mem:(Memory.create ~size:64))
  in
  let compile ccr_size =
    Driver.compile ~model:Model.region_pred
      ~machine:{ machine with Machine_model.ccr_size }
      ~profile diamond_loop
  in
  ignore (compile Pred.word_bits);
  Alcotest.check_raises "ccr_size past the word"
    (Invalid_argument
       (Printf.sprintf
          "Driver.compile: ccr_size %d is past the %d conditions a predicate \
           can name"
          (Pred.word_bits + 1) Pred.word_bits))
    (fun () -> ignore (compile (Pred.word_bits + 1)))

(* ---------- model lookup (the CLI's -m conv) ---------- *)

let test_model_find () =
  (match Model.find "region-pred" with
  | Ok m -> Alcotest.(check string) "hyphen name" "region-pred" m.Model.name
  | Error e -> Alcotest.failf "region-pred: %s" e);
  (match Model.find "region_pred" with
  | Ok m ->
      Alcotest.(check string) "underscores normalise" "region-pred"
        m.Model.name
  | Error e -> Alcotest.failf "region_pred: %s" e);
  match Model.find "trace-pred-counter" with
  | Ok m ->
      Alcotest.(check string) "counter variant findable" "trace-pred-counter"
        m.Model.name
  | Error e -> Alcotest.failf "trace-pred-counter: %s" e

let test_model_find_unknown_lists_all () =
  match Model.find "nonsense" with
  | Ok _ -> Alcotest.fail "nonsense resolved to a model"
  | Error msg ->
      (* The CLI surfaces this string verbatim, so it must name every
         valid model. *)
      List.iter
        (fun (m : Model.t) ->
          Alcotest.(check bool)
            (m.Model.name ^ " listed") true
            (let rec contains i =
               i + String.length m.Model.name <= String.length msg
               && (String.sub msg i (String.length m.Model.name) = m.Model.name
                  || contains (i + 1))
             in
             contains 0))
        (Model.trace_pred_counter :: Model.all)

let () =
  Alcotest.run "compiler"
    [
      ( "units",
        [
          Alcotest.test_case "region formation" `Quick test_region_formation;
          Alcotest.test_case "trace formation" `Quick test_trace_formation;
          Alcotest.test_case "program coverage" `Quick test_units_cover_program;
          Alcotest.test_case "foreign profile rejected" `Quick test_foreign_profile;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "all models valid" `Quick
            test_schedules_valid_all_models;
          Alcotest.test_case "ccr_size past the predicate word" `Quick
            test_ccr_past_word;
        ] );
      ( "sched-pins",
        [
          Alcotest.test_case "schedules pinned" `Quick test_schedule_pin;
          Alcotest.test_case "units pinned" `Quick test_unit_pin;
          Alcotest.test_case "profile fingerprints pinned" `Quick
            test_fingerprint_pin;
        ] );
      ( "unit-memo",
        [
          Alcotest.test_case "shared by params and profile" `Quick
            test_memo_shares_units;
          Alcotest.test_case "memoised equals cold" `Quick test_memo_equals_cold;
          Alcotest.test_case "shared across domains" `Quick
            test_memo_across_domains;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "diamond loop" `Quick test_equiv_diamond;
          Alcotest.test_case "linked list" `Quick test_equiv_list_sum;
          Alcotest.test_case "list w/ faulting NULL" `Quick
            test_equiv_list_nullfault;
          Alcotest.test_case "demand paging recovery" `Quick test_equiv_pager;
          Alcotest.test_case "speculative stores" `Quick test_equiv_store_diamond;
          Alcotest.test_case "infinite shadow" `Quick test_infinite_shadow_equiv;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "speedup sanity" `Quick test_speedup_sane;
          Alcotest.test_case "model ordering" `Quick test_model_ordering_diamond;
          Alcotest.test_case "replay failures" `Quick test_replay_failures;
          Qc.to_alcotest prop_fatal_trace_fails;
        ] );
      ( "model-lookup",
        [
          Alcotest.test_case "by name" `Quick test_model_find;
          Alcotest.test_case "unknown lists every model" `Quick
            test_model_find_unknown_lists_all;
        ] );
    ]
