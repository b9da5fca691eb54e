(* Tests of the predicating machine: predicated register file, store
   buffer, CCR, and the cycle-level VLIW simulator — including the
   Figure 4 (commit/squash) and Figure 5 (future-condition recovery)
   scenarios, exercised on hand-written predicated code. *)

open Psb_isa
open Psb_machine

let reg = Reg.make
let cond = Cond.make
let lbl = Label.make

let p_true c = Pred.of_list [ (c, true) ]
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A CCR with the given condition assignments — ticks now take the packed
   CCR itself rather than a lookup closure. *)
let ccr_with ?(width = 4) assigns =
  let ccr = Ccr.create ~width in
  List.iter (fun (c, v) -> Ccr.set ccr (cond c) v) assigns;
  ccr

(* Oracle check: the incremental live/fault counters must agree with a
   full recount of the buffered state. *)
let check_rf_counters rf =
  let live, faults = Regfile.debug_recount rf in
  check_bool "rf live counter" true (Regfile.has_spec rf = (live > 0));
  check_int "rf fault counter" faults (Regfile.buffered_faults rf)

let check_sb_counters sb =
  let len, spec, faults = Store_buffer.debug_recount sb in
  check_int "sb length counter" len (Store_buffer.length sb);
  check_bool "sb spec counter" true (Store_buffer.has_spec sb = (spec > 0));
  check_int "sb fault counter" faults (Store_buffer.buffered_faults sb)

(* ---------- CCR ---------- *)

let test_ccr_basic () =
  let ccr = Ccr.create ~width:4 in
  check_bool "initially unspecified" true (Ccr.get ccr (cond 0) = Pred.U);
  Ccr.set ccr (cond 0) true;
  Ccr.set ccr (cond 2) false;
  check_bool "c0 true" true (Ccr.get ccr (cond 0) = Pred.T);
  check_bool "c2 false" true (Ccr.get ccr (cond 2) = Pred.F);
  Ccr.reset ccr;
  check_bool "reset" true (Ccr.get ccr (cond 0) = Pred.U);
  ignore (Ccr.create ~width:Pred.word_bits);
  Alcotest.check_raises "width past the predicate word"
    (Invalid_argument
       (Printf.sprintf "Ccr.create: width %d is past Pred.word_bits (%d)"
          (Pred.word_bits + 1) Pred.word_bits))
    (fun () -> ignore (Ccr.create ~width:(Pred.word_bits + 1)))

let test_ccr_eval () =
  let ccr = Ccr.create ~width:4 in
  let p = Pred.of_list [ (cond 0, true); (cond 1, false) ] in
  check_bool "unspec" true (Ccr.evalc ccr p = Pred.Unspec);
  Ccr.set ccr (cond 0) true;
  (* paper rule: still unspecified while c1 is unset *)
  check_bool "still unspec" true (Ccr.evalc ccr p = Pred.Unspec);
  Ccr.set ccr (cond 1) false;
  check_bool "true" true (Ccr.evalc ccr p = Pred.True);
  Ccr.set ccr (cond 1) true;
  check_bool "false" true (Ccr.evalc ccr p = Pred.False)

let test_ccr_assign () =
  let a = Ccr.create ~width:3 and b = Ccr.create ~width:3 in
  Ccr.set b (cond 1) true;
  Ccr.assign a ~from:b;
  check_bool "copied" true (Ccr.get a (cond 1) = Pred.T);
  Ccr.set b (cond 1) false;
  check_bool "independent" true (Ccr.get a (cond 1) = Pred.T)

(* ---------- Register file ---------- *)

let test_regfile_commit () =
  let rf = Regfile.create ~nregs:4 () in
  Regfile.write_seq rf (reg 0) 10;
  let p = p_true (cond 0) in
  check_bool "spec write ok" true
    (Regfile.write_spec rf (reg 0) 99 ~pred:p ~fault:None = `Ok);
  check_int "seq unchanged" 10 (Regfile.read_seq rf (reg 0));
  check_int "shadow read" 99
    (Regfile.read rf (reg 0) ~shadow:true ~pred:p);
  check_rf_counters rf;
  Regfile.tick ~dirty:(-1) rf (ccr_with [ (0, true) ]);
  check_int "committed" 99 (Regfile.read_seq rf (reg 0));
  check_bool "shadow cleared" true (not (Regfile.has_spec rf));
  check_rf_counters rf

let test_regfile_squash () =
  let rf = Regfile.create ~nregs:4 () in
  Regfile.write_seq rf (reg 1) 7;
  ignore
    (Regfile.write_spec rf (reg 1) 42
       ~pred:(p_true (cond 0))
       ~fault:None);
  Regfile.tick ~dirty:(-1) rf (ccr_with [ (0, false) ]);
  check_int "squashed: seq intact" 7 (Regfile.read_seq rf (reg 1));
  check_bool "no spec left" true (not (Regfile.has_spec rf));
  check_int "one squash" 1 (Regfile.squashes rf)

let test_regfile_shadow_fallback () =
  (* §3.5 operand fetch: reading shadow with V clear falls back to seq. *)
  let rf = Regfile.create ~nregs:4 () in
  Regfile.write_seq rf (reg 2) 5;
  check_int "fallback" 5
    (Regfile.read rf (reg 2) ~shadow:true ~pred:Pred.always)

let test_regfile_conflict () =
  let rf = Regfile.create ~nregs:4 () in
  let c0 = p_true (cond 0) and c1 = p_true (cond 1) in
  check_bool "first ok" true
    (Regfile.write_spec rf (reg 0) 1 ~pred:c0 ~fault:None = `Ok);
  check_bool "different pred conflicts" true
    (Regfile.write_spec rf (reg 0) 2 ~pred:c1 ~fault:None = `Conflict);
  check_bool "same pred overwrites" true
    (Regfile.write_spec rf (reg 0) 3 ~pred:c0 ~fault:None = `Ok);
  check_int "conflict counted" 1 (Regfile.conflicts rf);
  check_rf_counters rf

let test_regfile_infinite_mode () =
  let rf = Regfile.create ~mode:Regfile.Infinite ~nregs:4 () in
  let c0 = p_true (cond 0) and c1 = p_true (cond 1) in
  check_bool "first ok" true
    (Regfile.write_spec rf (reg 0) 1 ~pred:c0 ~fault:None = `Ok);
  check_bool "second ok too" true
    (Regfile.write_spec rf (reg 0) 2 ~pred:c1 ~fault:None = `Ok);
  check_int "no conflicts" 0 (Regfile.conflicts rf);
  (* c0 true, c1 false: version 1 commits, version 2 squashes. *)
  Regfile.tick ~dirty:(-1) rf (ccr_with [ (0, true); (1, false) ]);
  check_int "right version committed" 1 (Regfile.read_seq rf (reg 0))

let test_regfile_exception_buffering () =
  let rf = Regfile.create ~nregs:4 () in
  let f = Fault.Mem (Memory.Unmapped 100) in
  let p = p_true (cond 0) in
  ignore
    (Regfile.write_spec rf (reg 3) 0 ~pred:p ~fault:(Some f));
  check_rf_counters rf;
  check_int "no detection while unspec" 0
    (List.length (Regfile.committing_exceptions rf (fun _ -> Pred.U)));
  check_int "detected on commit" 1
    (List.length (Regfile.committing_exceptions rf (fun _ -> Pred.T)));
  check_int "squash clears it" 0
    (List.length (Regfile.committing_exceptions rf (fun _ -> Pred.F)))

(* ---------- Store buffer ---------- *)

let test_sb_fifo_drain () =
  let sb = Store_buffer.create () in
  let mem = Memory.create ~size:64 in
  Store_buffer.append sb ~addr:1 ~value:11 ~pred:Pred.always
    ~spec:false ~fault:None;
  Store_buffer.append sb ~addr:2 ~value:22 ~pred:Pred.always
    ~spec:false ~fault:None;
  check_sb_counters sb;
  check_int "drain limited" 1 (Store_buffer.drain sb ~max:1 mem);
  check_int "first written" 11 (Memory.peek mem 1);
  check_int "second pending" 0 (Memory.peek mem 2);
  check_int "drain rest" 1 (Store_buffer.drain sb ~max:8 mem);
  check_int "second written" 22 (Memory.peek mem 2)

let test_sb_spec_blocks_drain () =
  let sb = Store_buffer.create () in
  let mem = Memory.create ~size:64 in
  Store_buffer.append sb ~addr:1 ~value:1
    ~pred:(p_true (cond 0))
    ~spec:true ~fault:None;
  Store_buffer.append sb ~addr:2 ~value:2 ~pred:Pred.always
    ~spec:false ~fault:None;
  check_int "speculative head blocks" 0 (Store_buffer.drain sb ~max:8 mem);
  check_sb_counters sb;
  Store_buffer.tick ~dirty:(-1) sb (ccr_with [ (0, true) ]);
  check_sb_counters sb;
  check_int "after commit both drain" 2 (Store_buffer.drain sb ~max:8 mem);
  check_int "order preserved" 1 (Memory.peek mem 1)

let test_sb_squash () =
  let sb = Store_buffer.create () in
  let mem = Memory.create ~size:64 in
  Store_buffer.append sb ~addr:1 ~value:1
    ~pred:(p_true (cond 0))
    ~spec:true ~fault:None;
  Store_buffer.tick ~dirty:(-1) sb (ccr_with [ (0, false) ]);
  check_sb_counters sb;
  check_int "squashed entry discarded" 0 (Store_buffer.drain sb ~max:8 mem);
  check_int "nothing written" 0 (Memory.peek mem 1);
  check_int "buffer empty" 0 (Store_buffer.length sb)

let test_sb_forwarding () =
  let sb = Store_buffer.create () in
  let p0 = p_true (cond 0) in
  let not_p0 = Pred.of_list [ (cond 0, false) ] in
  let unspec = ccr_with [] in
  let forward load_pred =
    match Store_buffer.forward sb ~addr:5 ~load_pred unspec with
    | `Hit ->
        `Hit (Store_buffer.forwarded_value sb, Store_buffer.forwarded_fault sb)
    | (`Miss | `Commit_dependence) as r -> r
  in
  Store_buffer.append sb ~addr:5 ~value:50 ~pred:Pred.always
    ~spec:false ~fault:None;
  (match forward Pred.always with
  | `Hit (50, None) -> ()
  | _ -> Alcotest.fail "expected hit from non-speculative entry");
  Store_buffer.append sb ~addr:5 ~value:60 ~pred:p0 ~spec:true ~fault:None;
  (* A load on the opposite path skips the speculative entry. *)
  (match forward not_p0 with
  | `Hit (50, None) -> ()
  | _ -> Alcotest.fail "disjoint speculative entry must be skipped");
  (* A load control-dependent on the store sees the speculative value. *)
  (match forward p0 with
  | `Hit (60, None) -> ()
  | _ -> Alcotest.fail "implied speculative entry must forward");
  (* An unrelated load with an unresolved store is a commit dependence. *)
  (match forward Pred.always with
  | `Commit_dependence -> ()
  | _ -> Alcotest.fail "expected commit-dependence report")

(* ---------- VLIW machine: hand-written predicated code ---------- *)

let model = Machine_model.base

let event_list ring =
  let acc = ref [] in
  Psb_obs.Events.iter ring (fun cycle kind a b ->
      acc := (cycle, kind, a, b) :: !acc);
  List.rev !acc

(* A run's timeline as [Vliw_trace] prints it: (cycle, line) pairs. *)
let timeline ~model pcode ring =
  let acc = ref [] in
  Vliw_trace.iter_lines ~model pcode ring (fun c l -> acc := (c, l) :: !acc);
  List.rev !acc

(* Every hand-written program runs through a lowered form that first
   passes the round-trip check, with a ring that holds the whole run. *)
let run_pcode ?(machine = model) ?regs ?(mem_size = 256) ?mem pcode =
  let mem = match mem with Some m -> m | None -> Memory.create ~size:mem_size in
  let lowered = Lowered.compile ~machine pcode in
  Alcotest.(check (result unit string))
    "lowering round trip" (Ok ()) (Lowered.check lowered);
  let events = Psb_obs.Events.create () in
  let r =
    Vliw_sim.run ~events ~regs:(Option.value regs ~default:[]) ~mem lowered
  in
  check_int "event ring never wrapped" 0 (Psb_obs.Events.dropped events);
  (r, mem)

let region name ?(sources = []) bundles =
  { Pcode.name = lbl name; code = Array.of_list bundles; source_blocks = sources }

let mov ?(pred = Pred.always) d src = Pcode.op pred (Instr.Mov { dst = reg d; src })

let setc c op a b = Pcode.op Pred.always (Instr.Setc { dst = cond c; op; a; b })

let load ?(pred = Pred.always) ?(shadow = []) d base off =
  Pcode.op
    ~shadow_srcs:(List.fold_left (fun s r -> Reg.Set.add (reg r) s) Reg.Set.empty shadow)
    pred
    (Instr.Load { dst = reg d; base = reg base; off })

let store ?(pred = Pred.always) src base off =
  Pcode.op pred (Instr.Store { src = reg src; base = reg base; off })

let out ?(pred = Pred.always) o = Pcode.op pred (Instr.Out o)
let imm i = Operand.imm i
let r i = Operand.reg (reg i)

(* A diamond collapsed into one region: r2 chosen by c0, both sides
   executed speculatively before c0 is known. *)
let diamond_region ~c0_true =
  let cmp_imm = if c0_true then 10 else 1 in
  region "main"
    [
      [ mov 1 (imm 5) ];
      (* both arms execute speculatively: shadow writes with predicates *)
      [
        mov ~pred:(p_true (cond 0)) 2 (imm 111);
        mov ~pred:(Pred.of_list [ (cond 0, false) ]) 3 (imm 222);
      ];
      [ setc 0 Opcode.Lt (r 1) (imm cmp_imm) ];
      [ out (r 2); out (r 3) ];
      [ Pcode.exit_stop Pred.always ];
    ]

let test_vliw_diamond_commit () =
  let pcode = Pcode.make ~entry:(lbl "main") [ diamond_region ~c0_true:true ] in
  let res, _ = run_pcode pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  (* c0 true: r2 committed to 111, r3's write squashed (reads as 0). *)
  Alcotest.(check (list int)) "output" [ 111; 0 ] res.Vliw_sim.output;
  check_bool "some commit" true (res.Vliw_sim.stats.Vliw_sim.commits >= 1);
  check_bool "some squash" true (res.Vliw_sim.stats.Vliw_sim.squashes >= 1)

let test_vliw_diamond_squash () =
  let pcode = Pcode.make ~entry:(lbl "main") [ diamond_region ~c0_true:false ] in
  let res, _ = run_pcode pcode in
  Alcotest.(check (list int)) "output" [ 0; 222 ] res.Vliw_sim.output

let test_vliw_spec_store_commit () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 7) ];
            [ store ~pred:(p_true (cond 0)) 1 0 10 ] (* spec store mem[r0+10] *);
            [ setc 0 Opcode.Eq (r 1) (imm 7) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, mem = run_pcode pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "store committed and drained" 7 (Memory.peek mem 10)

let test_vliw_spec_store_squash () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 7) ];
            [ store ~pred:(p_true (cond 0)) 1 0 10 ];
            [ setc 0 Opcode.Eq (r 1) (imm 999) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, mem = run_pcode pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "store squashed" 0 (Memory.peek mem 10)

(* Figure-5-style scenario: a speculative load faults; the fault is
   buffered with its predicate; the condition later commits it; the
   machine recovers through the future condition and handles the fault
   (demand page mapped), then resumes. *)
let recovery_region ~addr =
  let nop = Pcode.op Pred.always Instr.Nop in
  region "main"
    [
      [ mov 2 (imm addr) ];
      [ load ~pred:(p_true (cond 0)) 3 2 0 ] (* speculative, faults *);
      [ nop ] (* respect the two-cycle load latency *);
      [
        Pcode.op
          ~shadow_srcs:(Reg.Set.singleton (reg 3))
          (p_true (cond 0))
          (Instr.Alu { op = Opcode.Add; dst = reg 4; a = r 3; b = imm 1 });
      ]
      (* dependent on the corrupted value; must be re-executed *);
      [ mov 5 (imm 50) ] (* independent non-speculative work *);
      [ setc 0 Opcode.Lt (imm 0) (imm 1) ] (* commits the exception *);
      [ out (r 4); out (r 5) ];
      [ Pcode.exit_stop Pred.always ];
    ]

let test_vliw_recovery_recoverable () =
  let mem = Memory.create_demand ~size:4096 ~unmapped:(1024, 2048) in
  Memory.poke mem 1100 77;
  (* poke maps the page; fault must come from an address on another page *)
  let addr = 1200 in
  let pcode = Pcode.make ~entry:(lbl "main") [ recovery_region ~addr ] in
  let res, _ = run_pcode ~mem pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "one recovery" 1 res.Vliw_sim.stats.Vliw_sim.recoveries;
  check_int "fault handled once" 1 res.Vliw_sim.faults_handled;
  (* mem[1200] reads 0 after mapping; r4 = 0 + 1 *)
  Alcotest.(check (list int)) "output" [ 1; 50 ] res.Vliw_sim.output

let test_vliw_recovery_dependent_reexecuted () =
  let mem = Memory.create_demand ~size:4096 ~unmapped:(1024, 2048) in
  Memory.poke mem 1100 77;
  (* Remap trick: pre-poke the faulting address on an unmapped page is not
     possible (poke maps it); instead verify via a mapped-later value: the
     handled load reads 0, so the dependent add yields 1 — checked above.
     Here check a non-faulting speculative chain for contrast. *)
  let pcode = Pcode.make ~entry:(lbl "main") [ recovery_region ~addr:1100 ] in
  let res, _ = run_pcode ~mem pcode in
  check_int "no recovery when page mapped" 0 res.Vliw_sim.stats.Vliw_sim.recoveries;
  Alcotest.(check (list int)) "output" [ 78; 50 ] res.Vliw_sim.output

let test_vliw_fatal_committed_exception () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 2 (imm (-4)) ];
            [ load ~pred:(p_true (cond 0)) 3 2 0 ];
            [ Pcode.op Pred.always Instr.Nop ];
            [ setc 0 Opcode.Lt (imm 0) (imm 1) ];
            [ out (r 3) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode pcode in
  (match res.Vliw_sim.outcome with
  | Interp.Fatal (Fault.Mem (Memory.Out_of_bounds -4)) -> ()
  | o -> Alcotest.failf "expected fatal OOB, got %a" Interp.pp_outcome o);
  check_int "recovery attempted" 1 res.Vliw_sim.stats.Vliw_sim.recoveries

let test_vliw_squashed_fault_ignored () =
  (* The linked-list motivation (§2.1): a speculative load faults but its
     predicate turns out false — the fault must vanish without a trace. *)
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 2 (imm (-4)) ];
            [ load ~pred:(p_true (cond 0)) 3 2 0 ];
            [ Pcode.op Pred.always Instr.Nop ];
            [ setc 0 Opcode.Lt (imm 1) (imm 0) ] (* c0 = false *);
            [ out (imm 123) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode pcode in
  check_bool "halted normally" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "no recoveries" 0 res.Vliw_sim.stats.Vliw_sim.recoveries;
  Alcotest.(check (list int)) "output" [ 123 ] res.Vliw_sim.output

let test_vliw_region_transition () =
  let r1 =
    region "r1"
      [
        [ mov 1 (imm 3) ];
        [ setc 0 Opcode.Lt (r 1) (imm 10) ];
        [
          Pcode.exit_to (p_true (cond 0)) (lbl "r2");
          Pcode.exit_stop (Pred.of_list [ (cond 0, false) ]);
        ];
      ]
  in
  let r2 =
    region "r2"
      [
        (* c0 must have been reset on entry: a predicated op here must be
           speculative again, not committed from the previous region. *)
        [ mov ~pred:(p_true (cond 0)) 2 (imm 5) ];
        [ setc 0 Opcode.Gt (r 1) (imm 100) ] (* false in r2 *);
        [ out (r 2) ];
        [ Pcode.exit_stop Pred.always ];
      ]
  in
  let pcode = Pcode.make ~entry:(lbl "r1") [ r1; r2 ] in
  let res, _ = run_pcode pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  (* In r2, c0 is false, so r2's speculative mov squashes: out = 0. *)
  Alcotest.(check (list int)) "output" [ 0 ] res.Vliw_sim.output;
  check_int "one transition + final stop" 2
    res.Vliw_sim.stats.Vliw_sim.region_transitions

(* A committed store that has not drained yet is memory: its predicate
   was written in a region since left, whose conditions were reset and
   renumbered at the transition, so a load in the next region reads it
   whatever the load's own predicate. Region a commits [100] <- 5 under
   c1 behind a store still speculative on c0, which holds the buffer
   until c0 resolves in bundle 6; region b loads [100] under !c1 in its
   first bundle, where its own c1 is not yet set, and then resolves c1
   false, so the load commits. *)
let test_vliw_committed_store_outlives_region () =
  let pcode =
    Pcode_text.parse_exn
      {|entry a
region a:
  (0) alw ? r9 = 100 || alw ? r5 = 5 || alw ? r8 = 200
  (1) c0 ? store r8+0 = r5 || alw ? c1 = 0 < 1
  (2) c1 ? store r8+1 = r5 || alw ? r3 = 0
  (3) c1 ? store r8+2 = r5 || alw ? r3 = 0
  (4) c1 ? store r8+3 = r5 || alw ? r3 = 0
  (5) c1 ? store r8+4 = r5 || alw ? r3 = 0
  (6) c1 ? store r9+0 = r5 || alw ? c0 = 1 < 0
  (7) alw ? j b
region b:
  (0) !c1 ? r4 = load r9+0 || alw ? c1 = 1 < 0
  (1) alw ? r6 = 0
  (2) alw ? r6 = 0
  (3) !c1 ? out r4 || alw ? halt
|}
  in
  let res, mem = run_pcode pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  Alcotest.(check (list int)) "output" [ 5 ] res.Vliw_sim.output;
  check_int "memory" 5 (Memory.peek mem 100)

(* Two exits of one bundle are both true: the first in slot order fires.
   Compiled code gives a bundle's exits disjoint predicates, so nothing
   else holds the exit scan to this rule. *)
let test_vliw_first_true_exit () =
  let taken l v = region l [ [ out (imm v) ]; [ Pcode.exit_stop Pred.always ] ] in
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ setc 0 Opcode.Lt (imm 1) (imm 2) ];
            [ Pcode.op Pred.always Instr.Nop ];
            [
              Pcode.exit_to (p_true (cond 0)) (lbl "first");
              Pcode.exit_to Pred.always (lbl "second");
            ];
          ];
        taken "first" 1;
        taken "second" 2;
      ]
  in
  let res, _ = run_pcode pcode in
  Alcotest.(check (list int)) "first true exit taken" [ 1 ] res.Vliw_sim.output

let test_vliw_shadow_source_fetch () =
  (* A consumer reading the producer's speculative value via the shadow
     flag, before the producer commits. *)
  let p0 = p_true (cond 0) in
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 5) ];
            [ mov ~pred:p0 2 (imm 40) ];
            [ Pcode.op Pred.always Instr.Nop ];
            [
              Pcode.op
                ~shadow_srcs:(Reg.Set.singleton (reg 2))
                p0
                (Instr.Alu { op = Opcode.Add; dst = reg 4; a = r 2; b = imm 2 });
            ];
            [ setc 0 Opcode.Lt (r 1) (imm 10) ];
            [ out (r 4) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode pcode in
  Alcotest.(check (list int)) "shadow operand seen" [ 42 ] res.Vliw_sim.output

let test_vliw_out_of_fuel () =
  let pcode =
    Pcode.make ~entry:(lbl "spin")
      [
        region "spin"
          [ [ mov 1 (imm 1) ]; [ Pcode.exit_to Pred.always (lbl "spin") ] ];
      ]
  in
  let res =
    Vliw_sim.run ~fuel:1000 ~regs:[] ~mem:(Memory.create ~size:16)
      (Lowered.compile ~machine:model pcode)
  in
  check_bool "out of fuel" true (res.Vliw_sim.outcome = Interp.Out_of_fuel)

let test_vliw_conflict_stall () =
  (* Two speculative writes to the same register with different predicates,
     issued in the same bundle as the condition-setting instruction so the
     conflict resolves one cycle later: the single-shadow model must stall
     once and still produce the right result. *)
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 5) ];
            [
              setc 0 Opcode.Lt (r 1) (imm 10);
              mov ~pred:(p_true (cond 0)) 2 (imm 111);
              mov ~pred:(Pred.of_list [ (cond 0, false) ]) 2 (imm 222);
            ];
            [ Pcode.op Pred.always Instr.Nop ];
            [ out (r 2) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode pcode in
  Alcotest.(check (list int)) "right value" [ 111 ] res.Vliw_sim.output;
  check_bool "conflict recorded" true
    (res.Vliw_sim.stats.Vliw_sim.shadow_conflicts >= 1);
  (* The infinite-shadow machine executes the same code without stalls. *)
  let res_inf, _ =
    run_pcode ~machine:{ model with shadow = Regfile.Infinite } pcode
  in
  Alcotest.(check (list int)) "same result" [ 111 ] res_inf.Vliw_sim.output;
  check_int "no conflicts" 0 res_inf.Vliw_sim.stats.Vliw_sim.shadow_conflicts

(* ---------- recovery edge cases ---------- *)

(* Two independent speculative faults committed by two different conditions
   in one region: two full recovery episodes back to back. *)
let test_vliw_double_recovery () =
  let mem = Memory.create_demand ~size:4096 ~unmapped:(1024, 3072) in
  let nop = Pcode.op Pred.always Instr.Nop in
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 2 (imm 1200); mov 3 (imm 2200) ];
            [ load ~pred:(p_true (cond 0)) 4 2 0 ] (* faults, pred c0 *);
            [ load ~pred:(p_true (cond 1)) 5 3 0 ] (* faults, pred c1 *);
            [ nop ];
            [ setc 0 Opcode.Lt (imm 0) (imm 1) ] (* commits fault #1 *);
            [ nop ];
            [ setc 1 Opcode.Lt (imm 1) (imm 2) ] (* commits fault #2 *);
            [
              Pcode.op
                ~shadow_srcs:(Reg.Set.of_list [ reg 4; reg 5 ])
                (Pred.of_list [ (cond 0, true); (cond 1, true) ])
                (Instr.Alu { op = Opcode.Add; dst = reg 6; a = r 4; b = r 5 });
            ];
            [ out (r 6) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode ~mem pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "two recoveries" 2 res.Vliw_sim.stats.Vliw_sim.recoveries;
  check_int "two faults handled" 2 res.Vliw_sim.faults_handled;
  Alcotest.(check (list int)) "sum of mapped zeros" [ 0 ] res.Vliw_sim.output

(* A speculative store before the commit point must be invalidated at
   detection and regenerated by the recovery re-execution. *)
let test_vliw_recovery_regenerates_store () =
  let mem = Memory.create_demand ~size:4096 ~unmapped:(1024, 2048) in
  let nop = Pcode.op Pred.always Instr.Nop in
  let p0 = p_true (cond 0) in
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 2 (imm 1200); mov 3 (imm 77) ];
            [ load ~pred:p0 4 2 0; store ~pred:p0 3 0 10 ]
            (* the load faults; the store is speculative and will be
               invalidated, then re-executed during recovery *);
            [ nop ];
            [ setc 0 Opcode.Lt (imm 0) (imm 1) ];
            [ out (imm 1) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, mem = run_pcode ~mem pcode in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "one recovery" 1 res.Vliw_sim.stats.Vliw_sim.recoveries;
  check_int "store survived recovery" 77 (Memory.peek mem 10)

(* A fatal fault whose predicate commits: recovery runs, re-faults, and
   the future condition says handle it — fatal aborts the program. *)
let test_vliw_fatal_during_recovery () =
  let nop = Pcode.op Pred.always Instr.Nop in
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 2 (imm (-3)) ];
            [ load ~pred:(p_true (cond 0)) 4 2 0 ];
            [ nop ];
            [ setc 0 Opcode.Lt (imm 0) (imm 1) ];
            [ out (imm 9) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode pcode in
  (match res.Vliw_sim.outcome with
  | Interp.Fatal (Fault.Mem (Memory.Out_of_bounds -3)) -> ()
  | o -> Alcotest.failf "expected fatal OOB, got %a" Interp.pp_outcome o);
  check_int "recovery was attempted" 1 res.Vliw_sim.stats.Vliw_sim.recoveries

(* Store-buffer capacity: with two store units feeding one D-cache write
   port, a burst of stores outruns the drain, fills the tiny FIFO, and
   stalls the next store bundle until the backlog clears. A speculative
   head whose resolver is scheduled behind a stalled store can never
   resolve — the deadlock guard reports it as a machine error. *)
let test_vliw_sb_capacity_stall () =
  let burst =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 7) ];
            [ store 1 0 20; store 1 0 21 ];
            [ store 1 0 22; store 1 0 23 ];
            [ store 1 0 24 ];
            [ out (imm 1) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let tiny =
    {
      model with
      Machine_model.sb_capacity = 2;
      Machine_model.store_units = 2;
      Machine_model.dcache_ports = 1;
    }
  in
  let mem = Memory.create ~size:256 in
  let res, _ = run_pcode ~machine:tiny ~mem burst in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_bool "stalled on the full buffer" true
    (res.Vliw_sim.stats.Vliw_sim.sb_stall_cycles > 0);
  check_int "all stores landed" 7 (Memory.peek mem 24);
  (* ample capacity: no stalls *)
  let roomy = { tiny with Machine_model.sb_capacity = 16 } in
  let res2, _ = run_pcode ~machine:roomy burst in
  check_int "no stalls at capacity 16" 0 res2.Vliw_sim.stats.Vliw_sim.sb_stall_cycles;
  (* pathological: a speculative head blocks the FIFO and its resolving
     Setc sits behind a stalled store bundle *)
  let bad =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 7) ];
            [ store ~pred:(p_true (cond 0)) 1 0 20 ];
            [ store 1 0 21 ];
            [ setc 0 Opcode.Gt (imm 1) (imm 0) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let cap1 = { tiny with Machine_model.sb_capacity = 1 } in
  match
    Vliw_sim.run ~regs:[] ~mem:(Memory.create ~size:256)
      (Lowered.compile ~machine:cap1 bad)
  with
  | _ -> Alcotest.fail "expected a machine error"
  | exception Vliw_sim.Machine_error _ -> ()

(* ---------- The paper's own example: Figure 4 / Table 1 ---------- *)

(* The scheduled code of Figure 4, transcribed bundle by bundle for the
   2-issue machine, and driven down the c0&c1 path of Table 1:

     (1) i1 : alw   r1 = load(r2)      i15: c0&c1  r2.s = r2 - 1
     (2) i10: !c0   r5.s = load array  i14: c0&c1  store(r7) = r5
     (3) i2 : alw   r3 = r1 + 1        i16: c0&c1  r7.s = r2.s << 1
     (4) i6 : c0    r6 = load(r3)      i3 : alw    c0 = r3 < r4
     (5) i11: alw   c2 = r2 < 0        nop
     (6) i7 : alw   c1 = r5 < r6       i12: !c0&c2  j L6
     (7) i9 : c0&!c1 j L5              i17: c0&c1   j L8
     (8) i13: !c0&!c2 j L7             nop

   Expected behaviour (Table 1): the speculative r5 is squashed when c0
   sets true; i6 commits during execution; r2, r7 and the buffered store
   commit when c1 sets true; the region exits through i17 to L8. *)
let test_paper_figure4 () =
  let c0 = cond 0 and c1 = cond 1 and c2 = cond 2 in
  let p_c0c1 = Pred.of_list [ (c0, true); (c1, true) ] in
  let p_nc0 = Pred.of_list [ (c0, false) ] in
  let p_c0 = Pred.of_list [ (c0, true) ] in
  let p_c0nc1 = Pred.of_list [ (c0, true); (c1, false) ] in
  let p_nc0c2 = Pred.of_list [ (c0, false); (c2, true) ] in
  let p_nc0nc2 = Pred.of_list [ (c0, false); (c2, false) ] in
  let setc_cmp c op a b = Pcode.op Pred.always (Instr.Setc { dst = c; op; a; b }) in
  let main =
    region "L4"
      [
        (* (1) *)
        [ load 1 2 0; Pcode.op p_c0c1 (Instr.Alu { op = Opcode.Sub; dst = reg 2; a = r 2; b = imm 1 }) ];
        (* (2): i10 loads the array element; i14 buffers a speculative store *)
        [ load ~pred:p_nc0 5 8 0; store ~pred:p_c0c1 5 7 0 ];
        (* (3) *)
        [ Pcode.op Pred.always (Instr.Alu { op = Opcode.Add; dst = reg 3; a = r 1; b = imm 1 });
          Pcode.op ~shadow_srcs:(Reg.Set.singleton (reg 2)) p_c0c1
            (Instr.Alu { op = Opcode.Sll; dst = reg 7; a = r 2; b = imm 1 }) ];
        (* (4) *)
        [ load ~pred:p_c0 6 3 0; setc_cmp c0 Opcode.Lt (r 3) (r 4) ];
        (* (5) *)
        [ setc_cmp c2 Opcode.Lt (r 2) (imm 0) ];
        (* (6) *)
        [ setc_cmp c1 Opcode.Lt (r 5) (r 6); Pcode.exit_to p_nc0c2 (lbl "L6") ];
        (* (7) *)
        [ Pcode.exit_to p_c0nc1 (lbl "L5"); Pcode.exit_to p_c0c1 (lbl "L8") ];
        (* (8) *)
        [ Pcode.exit_to p_nc0nc2 (lbl "L7") ];
      ]
  in
  let stop name = region name [ [ out (imm 0); Pcode.exit_stop Pred.always ] ] in
  let l8 = region "L8" [ [ out (imm 8); Pcode.exit_stop Pred.always ] ] in
  let pcode =
    Pcode.make ~entry:(lbl "L4") [ main; l8; stop "L5"; stop "L6"; stop "L7" ]
  in
  let mem = Memory.create ~size:256 in
  Memory.poke mem 40 5 (* r1 = mem[r2=40] = 5, so r3 = 6 *);
  Memory.poke mem 6 100 (* r6 = mem[r3=6] = 100 *);
  Memory.poke mem 64 55 (* the array element i10 loads speculatively *);
  let regs =
    [ (reg 2, 40); (reg 4, 10); (reg 5, 7); (reg 7, 99); (reg 8, 64) ]
  in
  let two_issue =
    { Machine_model.base with Machine_model.issue_width = 2 }
  in
  let ring = Psb_obs.Events.create () in
  let res =
    Vliw_sim.run ~events:ring ~regs ~mem
      (Lowered.compile ~machine:two_issue pcode)
  in
  let events = timeline ~model:two_issue pcode ring in
  (* took the i17 exit to L8 *)
  Alcotest.(check (list int)) "exited to L8" [ 8 ] res.Vliw_sim.output;
  (* r2 committed as r2 - 1 *)
  check_int "r2 committed" 39 (Reg.Map.find (reg 2) res.Vliw_sim.regs);
  (* i16 read the speculative r2 through the shadow: r7 = (40-1) << 1 *)
  check_int "r7 from shadow r2" 78 (Reg.Map.find (reg 7) res.Vliw_sim.regs);
  (* i14 stored the sequential r5 at the old r7 and committed via sb1 *)
  check_int "store committed" 7 (Memory.peek mem 99);
  (* i10's speculative r5 was squashed: the sequential r5 is untouched *)
  check_int "r5 squashed" 7 (Reg.Map.find (reg 5) res.Vliw_sim.regs);
  (* i6 committed during execution *)
  check_int "r6 committed in flight" 100 (Reg.Map.find (reg 6) res.Vliw_sim.regs);
  check_bool "at least one squash (r5)" true (res.Vliw_sim.stats.Vliw_sim.squashes >= 1);
  check_bool "speculative commits (r2, r7, sb1)" true
    (res.Vliw_sim.stats.Vliw_sim.commits >= 3);
  (* Table 1 runs 7 cycles to the transfer; allow the pipeline-drain tail *)
  check_bool
    (Format.asprintf "region time ~ Table 1 (got %d cycles)" res.Vliw_sim.cycles)
    true
    (res.Vliw_sim.cycles >= 7 && res.Vliw_sim.cycles <= 12);
  (* Table 1's event sequence: r5 squashes when c0 sets (cycle 5 in the
     paper's 1-based counting); r2, r7 and the buffered store all commit
     together when c1 sets (cycle 7); the exit to L8 fires the same
     cycle. *)
  let get line =
    match List.find_opt (fun (_, l) -> l = line) events with
    | Some (c, _) -> c
    | None -> Alcotest.failf "event %s missing from the trace" line
  in
  let t_squash_r5 = get "squash r5" in
  let t_commit_r2 = get "commit r2" in
  let t_commit_r7 = get "commit r7" in
  let t_commit_sb = get "commit sb@99" in
  let t_exit = get "exit -> L8" in
  check_bool "r5 squashed before the c0&c1 commits" true
    (t_squash_r5 < t_commit_r2);
  check_int "r2 and r7 commit together" t_commit_r2 t_commit_r7;
  check_int "the store commits with them" t_commit_r2 t_commit_sb;
  check_int "exit fires the same cycle as the commits" t_commit_r2 t_exit;
  (* the squash happens exactly two cycles before the commit group, as in
     Table 1 (c0 at cycle 5, c1 at cycle 7) *)
  check_int "squash-to-commit spacing" 2 (t_commit_r2 - t_squash_r5)

(* The Figure 5 walkthrough (§3.5): i4's speculative exception commits
   when c1 sets true; the machine saves the future condition, rolls back,
   and in recovery mode handles i4's fault (its predicate is true under
   the future condition), ignores i5's (false under it), and regenerates
   i6's value; recovery ends at the original commit point.

     i1: alw    ? r1 = r2          i5: c0&!c1 ? r5.s = load(r6)   [faults]
     i2: alw    ? c0 = r3 < 0      i6: c0&c1  ? r7.s = r7 + r3.s
     i3: c0     ? r2 = load(r2)    i7: alw    ? c1 = r2 > r8
     i4: c0&c1  ? r3.s = load(r4)  [faults]                          *)
let test_paper_figure5 () =
  let c0 = cond 0 and c1 = cond 1 in
  let p_c0 = p_true c0 in
  let p_c0c1 = Pred.of_list [ (c0, true); (c1, true) ] in
  let p_c0nc1 = Pred.of_list [ (c0, true); (c1, false) ] in
  let pcode =
    Pcode.make ~entry:(lbl "R")
      [
        region "R"
          [
            [ mov 1 (r 2) ];
            [ setc 0 Opcode.Lt (r 3) (imm 0) ];
            [ load ~pred:p_c0 2 2 0 ];
            [ load ~pred:p_c0c1 3 4 0 ];
            [ load ~pred:p_c0nc1 5 6 0 ];
            [
              Pcode.op
                ~shadow_srcs:(Reg.Set.singleton (reg 3))
                p_c0c1
                (Instr.Alu { op = Opcode.Add; dst = reg 7; a = r 7; b = r 3 });
            ];
            [ setc 1 Opcode.Gt (r 2) (r 8) ];
            [ out (r 7) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let mem = Memory.create_demand ~size:4096 ~unmapped:(1024, 2048) in
  Memory.poke mem 50 99 (* i3's load: 99 > r8, so c1 sets true *);
  let regs =
    [ (reg 2, 50); (reg 3, -1); (reg 4, 1100); (reg 6, 1300); (reg 7, 10); (reg 8, 5) ]
  in
  let single_issue = { Machine_model.base with Machine_model.issue_width = 1 } in
  let ring = Psb_obs.Events.create () in
  let res =
    Vliw_sim.run ~events:ring ~regs ~mem
      (Lowered.compile ~machine:single_issue pcode)
  in
  let events = timeline ~model:single_issue pcode ring in
  check_bool "halted" true (res.Vliw_sim.outcome = Interp.Halted);
  check_int "one recovery episode" 1 res.Vliw_sim.stats.Vliw_sim.recoveries;
  (* i4's exception handled; i5's squashed without a handler call *)
  check_int "only i4's fault handled" 1 res.Vliw_sim.faults_handled;
  (* r7 regenerated by i6's re-execution: 10 + mem[1100 after mapping]=0 *)
  Alcotest.(check (list int)) "r7 regenerated" [ 10 ] res.Vliw_sim.output;
  (* event order: detection → recovery done → r3/r7 commit and r5 squash *)
  let idx line =
    match List.find_index (fun (_, l) -> l = line) events with
    | Some i -> i
    | None -> Alcotest.failf "event %s missing" line
  in
  let det = idx "exception detected" in
  let fin = idx "recovery done" in
  let commit_r3 = idx "commit r3" in
  let commit_r7 = idx "commit r7" in
  let squash_r5 = idx "squash r5" in
  check_bool "detection precedes recovery end" true (det < fin);
  check_bool "commits happen after recovery" true
    (fin < commit_r3 && fin < commit_r7 && fin < squash_r5);
  (* the squashed i5 entry never triggers a second detection *)
  check_int "exactly one detection" 1
    (List.length (List.filter (fun (_, l) -> l = "exception detected") events))

(* ---------- machine invariants on bad code ---------- *)

let expect_machine_error name pcode =
  match run_pcode pcode with
  | _ -> Alcotest.failf "%s: expected a machine error" name
  | exception Vliw_sim.Machine_error _ -> ()

let test_vliw_bad_code_rejected () =
  (* running off a region end: the only exit's predicate never fires *)
  expect_machine_error "non-exhaustive exits"
    (Pcode.make ~entry:(lbl "m")
       [
         region "m"
           [
             [ mov 1 (imm 0) ];
             [ setc 0 Opcode.Lt (imm 2) (imm 1) ] (* c0 = false *);
             [ Pcode.exit_to (p_true (cond 0)) (lbl "m") ];
           ];
       ]);
  (* a side-effecting Out issued under an unspecified predicate *)
  expect_machine_error "speculative Out"
    (Pcode.make ~entry:(lbl "m")
       [
         region "m"
           [
             [ out ~pred:(p_true (cond 0)) (imm 1) ];
             [ setc 0 Opcode.Lt (imm 1) (imm 2) ];
             [ Pcode.exit_stop Pred.always ];
           ];
       ]);
  (* a commit-dependence violation: a load hits an unresolved speculative
     store to the same address with an unrelated predicate *)
  expect_machine_error "commit dependence"
    (Pcode.make ~entry:(lbl "m")
       [
         region "m"
           [
             [ mov 1 (imm 7) ];
             [ store ~pred:(p_true (cond 0)) 1 0 10 ];
             [ load 2 0 10 ] (* alw load of the same address *);
             [ setc 0 Opcode.Lt (imm 1) (imm 2) ];
             [ Pcode.exit_stop Pred.always ];
           ];
       ])

(* region predicating must agree with the scalar reference at every
   machine width, not just the base 4-issue *)
let test_vliw_widths_agree () =
  let w = Psb_workloads.Suite.find "espresso" in
  let open Psb_workloads in
  let scalar, profile =
    Psb_compiler.Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs
      ~mem:(w.Dsl.make_mem ())
  in
  List.iter
    (fun width ->
      let machine = Machine_model.full_issue ~width ~max_spec_conds:4 in
      let compiled =
        Psb_compiler.Driver.compile ~model:Psb_compiler.Model.region_pred
          ~machine ~profile w.Dsl.program
      in
      let res =
        Leash.run_vliw compiled ~regs:w.Dsl.regs
          ~mem:(w.Dsl.make_mem ())
      in
      Alcotest.(check (list int))
        (Format.asprintf "%d-issue output" width)
        scalar.Interp.output res.Vliw_sim.output;
      (* a single-issue predicated machine pays for both diamond arms and
         can legitimately trail the scalar machine (the paper's Figure 8
         starts at 2-issue); from 2-issue up, predication must win *)
      if width >= 2 then
        check_bool
          (Format.asprintf "%d-issue no slower than scalar" width)
          true
          (res.Vliw_sim.cycles <= scalar.Interp.cycles)
      else
        check_bool "1-issue within 2x of scalar" true
          (res.Vliw_sim.cycles <= 2 * scalar.Interp.cycles))
    [ 1; 2; 8 ]

(* ---------- predicated-code text round trip ---------- *)

let test_pcode_text_roundtrip () =
  (* compile a real workload, print its predicated code, parse it back,
     and check both the text fixpoint and the machine behaviour *)
  let w = Psb_workloads.Suite.find "li" in
  let open Psb_workloads in
  let scalar, profile =
    Psb_compiler.Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs
      ~mem:(w.Dsl.make_mem ())
  in
  let compiled =
    Psb_compiler.Driver.compile ~model:Psb_compiler.Model.region_pred
      ~machine:Machine_model.base ~profile w.Dsl.program
  in
  let code = Option.get compiled.Psb_compiler.Driver.pcode in
  let text = Pcode_text.print code in
  match Pcode_text.parse text with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok code' ->
      Alcotest.(check string) "print/parse fixpoint" text (Pcode_text.print code');
      let res =
        Vliw_sim.run ~fuel:Leash.fuel ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
          (Lowered.compile ~machine:Machine_model.base code')
      in
      Alcotest.(check (list int)) "parsed code runs identically"
        scalar.Interp.output res.Vliw_sim.output

let test_pcode_text_errors () =
  List.iter
    (fun src ->
      match Pcode_text.parse src with
      | Ok _ -> Alcotest.failf "expected parse error for %S" src
      | Error _ -> ())
    [
      "region r:\n  (0) alw ? halt\n" (* no entry *);
      "entry r\nregion r:\n  (1) alw ? halt\n" (* index out of sequence *);
      "entry r\nregion r:\n  (0) c0&!c0 ? halt\n" (* contradictory pred *);
      "entry r\nregion r:\n  (0) alw ? r1 = frob 1 2\n" (* bad op *);
      "entry r\nregion r:\n  (0) alw ? nop\n" (* no exit in last bundle *);
    ]

(* ---------- Predicate kernel: mask eval = Pred.eval ---------- *)

(* Random predicates over both ends of the word: the low conditions real
   CCRs use and the top two, the last of which is the sign bit. *)
let boundary_conds = [ 0; 1; 5; 30; Pred.word_bits - 2; Pred.word_bits - 1 ]

let gen_boundary_pred =
  QCheck.Gen.(
    list_size (int_bound 5) (pair (oneofl boundary_conds) bool) >|= fun lits ->
    List.fold_left
      (fun p (c, v) ->
        match Pred.conj p (cond c) v with p' -> p' | exception _ -> p)
      Pred.always lits)

let arb_boundary_pred =
  QCheck.make ~print:(Format.asprintf "%a" Pred.pp) gen_boundary_pred

let gen_cond_states =
  QCheck.Gen.(
    array_size (return Pred.word_bits) (oneofl [ Some true; Some false; None ]))

let prop_mask_eval_agrees =
  QCheck.Test.make ~name:"mask eval = Pred.eval, whole word"
    ~count:2000
    (QCheck.pair arb_boundary_pred (QCheck.make gen_cond_states))
    (fun (p, states) ->
      let ccr = Ccr.create ~width:Pred.word_bits in
      Array.iteri
        (fun i s ->
          match s with Some v -> Ccr.set ccr (cond i) v | None -> ())
        states;
      Ccr.evalc ccr p = Pred.eval p (Ccr.get ccr))

let prop_mask_eval_tracks_resets =
  (* The packed mirror must stay coherent through set/reset/assign, not
     just after a straight-line fill. *)
  QCheck.Test.make ~name:"packed CCR mirror coherent under set/reset/assign"
    ~count:500
    (QCheck.pair arb_boundary_pred (QCheck.make gen_cond_states))
    (fun (p, states) ->
      let ccr = Ccr.create ~width:Pred.word_bits in
      Array.iteri
        (fun i s ->
          match s with Some v -> Ccr.set ccr (cond i) v | None -> ())
        states;
      let snapshot = Ccr.copy ccr in
      Ccr.reset ccr;
      let after_reset =
        Ccr.evalc ccr p = Pred.eval p (Ccr.get ccr)
        && (Pred.is_always p || Ccr.evalc ccr p = Pred.Unspec)
      in
      Ccr.assign ccr ~from:snapshot;
      after_reset && Ccr.evalc ccr p = Pred.eval p (Ccr.get snapshot))

(* Dirty-condition gating at the register-file level: a tick whose dirty
   mask misses the version's conditions must skip it (still buffered),
   and a later tick with the right bit must commit it. *)
let test_regfile_dirty_gating () =
  let rf = Regfile.create ~nregs:4 () in
  let p = p_true (cond 2) in
  ignore (Regfile.write_spec rf (reg 0) 9 ~pred:p ~fault:None);
  let ccr = ccr_with [ (2, true) ] in
  (* cond 2 is specified, but the tick is told only cond 0 changed: the
     mask kernel must not even look. *)
  Regfile.tick ~dirty:(1 lsl 0) rf ccr;
  check_bool "still buffered after gated tick" true (Regfile.has_spec rf);
  check_int "skipped once" 1 (Regfile.tick_skipped rf);
  Regfile.tick ~dirty:(1 lsl 2) rf ccr;
  check_bool "committed once ungated" true (not (Regfile.has_spec rf));
  check_int "committed value" 9 (Regfile.read_seq rf (reg 0));
  check_rf_counters rf

(* A store appended with an already-decided predicate must be examined on
   its first tick even when the dirty mask is empty — entries enter the
   buffer unconditionally, unlike register versions. *)
let test_sb_dirty_gating_fresh_entry () =
  let sb = Store_buffer.create () in
  let mem = Memory.create ~size:64 in
  let ccr = ccr_with [ (0, true) ] in
  Store_buffer.append sb ~addr:3 ~value:33
    ~pred:(p_true (cond 0))
    ~spec:true ~fault:None;
  Store_buffer.tick ~dirty:0 sb ccr;
  check_int "fresh entry examined despite empty dirty mask" 1
    (Store_buffer.tick_examined sb);
  check_int "committed and drains" 1 (Store_buffer.drain sb ~max:8 mem);
  check_int "value written" 33 (Memory.peek mem 3);
  (* once examined (and still unresolved), gating applies *)
  Store_buffer.append sb ~addr:4 ~value:44
    ~pred:(p_true (cond 1))
    ~spec:true ~fault:None;
  Store_buffer.tick ~dirty:0 sb ccr;
  Store_buffer.tick ~dirty:0 sb ccr;
  check_int "second tick skipped" 1 (Store_buffer.tick_skipped sb);
  check_sb_counters sb

(* Dirty-condition gating never delays a commit or squash: random
   sequences of CCR writes ([set], [reset], [assign]), speculative
   register writes and store-buffer appends run on twin states; after
   every step one twin ticks with the mask the CCR accumulated
   ([Ccr.take_dirty]) and the other with [~dirty:(-1)], which examines
   every entry. Events, counters and buffered state must agree. As in
   the machine, a register version is buffered only while its predicate
   is Unspec; stores are appended whatever their predicate. *)
type gating_op =
  | G_set of int * bool
  | G_reset
  | G_assign of (int * bool) list
  | G_write of int * Pred.t
  | G_append of int * Pred.t

let pp_gating_op ppf = function
  | G_set (c, v) -> Format.fprintf ppf "set c%d %b" c v
  | G_reset -> Format.pp_print_string ppf "reset"
  | G_assign lits ->
      Format.fprintf ppf "assign [%s]"
        (String.concat "; "
           (List.map (fun (c, v) -> Printf.sprintf "c%d=%b" c v) lits))
  | G_write (r, p) -> Format.fprintf ppf "write r%d ? %a" r Pred.pp p
  | G_append (a, p) -> Format.fprintf ppf "append @%d ? %a" a Pred.pp p

let arb_gating_ops =
  let open QCheck.Gen in
  let lit = pair (oneofl boundary_conds) bool in
  let op =
    frequency
      [
        (4, map (fun (c, v) -> G_set (c, v)) lit);
        (1, return G_reset);
        (1, map (fun lits -> G_assign lits) (list_size (int_bound 6) lit));
        (3, map2 (fun r p -> G_write (r, p)) (int_bound 3) gen_boundary_pred);
        (3, map2 (fun a p -> G_append (a, p)) (int_bound 3) gen_boundary_pred);
      ]
  in
  QCheck.make
    ~print:(fun (infinite, ops) ->
      Format.asprintf "infinite=%b@.%a" infinite
        (Format.pp_print_list pp_gating_op)
        ops)
    (pair bool (list_size (int_range 1 40) op))

let prop_dirty_gating_never_delays =
  QCheck.Test.make ~name:"dirty gating never delays a commit or squash"
    ~count:500 arb_gating_ops (fun (infinite, ops) ->
      let mode = if infinite then Regfile.Infinite else Regfile.Single in
      (* each twin's register file and store buffer share one ring *)
      let twin () =
        let ring = Psb_obs.Events.create () in
        ( ring,
          ( Ccr.create ~width:Pred.word_bits,
            Regfile.create ~mode ~events:ring ~nregs:4 (),
            Store_buffer.create ~events:ring () ) )
      in
      let ring, ((ccr, rf, sb) as gated) = twin ()
      and ring', ((ccr', rf', sb') as full) = twin () in
      let step i op =
        List.iter
          (fun (ccr, rf, sb) ->
            match op with
            | G_set (c, v) -> Ccr.set ccr (cond c) v
            | G_reset -> Ccr.reset ccr
            | G_assign lits ->
                Ccr.assign ccr ~from:(ccr_with ~width:Pred.word_bits lits)
            | G_write (r, p) ->
                if Ccr.evalc ccr p = Pred.Unspec then
                  ignore (Regfile.write_spec rf (reg r) i ~pred:p ~fault:None)
            | G_append (a, p) ->
                Store_buffer.append sb ~addr:a ~value:i ~pred:p
                  ~spec:true ~fault:None)
          [ gated; full ];
        let dirty = Ccr.take_dirty ccr in
        Regfile.tick ~dirty rf ccr;
        Regfile.tick ~dirty:(-1) rf' ccr';
        Store_buffer.tick ~dirty sb ccr;
        Store_buffer.tick ~dirty:(-1) sb' ccr';
        let shadow rf =
          List.map
            (fun r ->
              Regfile.read rf (reg r) ~shadow:true ~pred:Pred.always)
            [ 0; 1; 2; 3 ]
        in
        event_list ring = event_list ring'
        && Regfile.commits rf = Regfile.commits rf'
        && Regfile.squashes rf = Regfile.squashes rf'
        && Regfile.debug_recount rf = Regfile.debug_recount rf'
        && Reg.Map.equal Int.equal (Regfile.final_state rf)
             (Regfile.final_state rf')
        && shadow rf = shadow rf'
        && Store_buffer.commits sb = Store_buffer.commits sb'
        && Store_buffer.squashes sb = Store_buffer.squashes sb'
        && Store_buffer.debug_recount sb = Store_buffer.debug_recount sb'
      in
      List.for_all Fun.id (List.mapi step ops))

(* The gating regression at machine level: the bundle that resolves the
   buffered write's condition also writes an unrelated condition. The
   gated tick must still commit r2 and squash r3 in the same cycle, at
   the cycle count an ungated machine reaches. *)
let test_vliw_dirty_gating_same_cycle_conds () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 5) ];
            [
              mov ~pred:(p_true (cond 0)) 2 (imm 111);
              mov ~pred:(p_true (cond 1)) 3 (imm 222);
            ];
            (* c0 (relevant to r2) and c1 (relevant to r3) are specified by
               the same bundle; a third, unread condition rides along. *)
            [
              setc 0 Opcode.Lt (r 1) (imm 10);
              setc 1 Opcode.Lt (imm 10) (r 1);
              setc 2 Opcode.Eq (r 1) (imm 5);
            ];
            [ out (r 2); out (r 3) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let res, _ = run_pcode ~mem_size:64 pcode in
  Alcotest.(check (list int)) "output" [ 111; 0 ] res.Vliw_sim.output;
  check_int "cycles" 5 res.Vliw_sim.cycles;
  check_int "commits" 1 res.Vliw_sim.stats.Vliw_sim.commits;
  check_int "squashes" 1 res.Vliw_sim.stats.Vliw_sim.squashes

(* ---------- Region lowering (Lowered) ---------- *)

(* Hand-written edge cases of the lowered walk, each held to the values
   its run has always produced; the broad random coverage lives in the
   differential suite and the fuzzer. *)

let check_pinned name (r : Vliw_sim.result) ~cycles ~output ~commits
    ~squashes ~sb_stalls ~conflict_stalls =
  let s = r.Vliw_sim.stats in
  check_int (name ^ ": cycles") cycles r.Vliw_sim.cycles;
  Alcotest.(check (list int)) (name ^ ": output") output r.Vliw_sim.output;
  check_int (name ^ ": commits") commits s.Vliw_sim.commits;
  check_int (name ^ ": squashes") squashes s.Vliw_sim.squashes;
  check_int (name ^ ": sb stalls") sb_stalls s.Vliw_sim.sb_stall_cycles;
  check_int (name ^ ": conflict stalls") conflict_stalls
    s.Vliw_sim.conflict_stall_cycles

let test_lowered_shape () =
  let pcode = Pcode.make ~entry:(lbl "main") [ diamond_region ~c0_true:true ] in
  let low = Lowered.compile ~machine:model pcode in
  check_int "one region" 1 (Array.length low.Lowered.regions);
  check_int "entry index" 0 low.Lowered.entry;
  let lr = low.Lowered.regions.(0) in
  check_int "bundle count" 5 lr.Lowered.nbundles;
  (* every pcode slot lands in exactly one flat slot *)
  check_int "ops + exits = slots" (Pcode.num_slots pcode)
    (Lowered.num_ops low + Lowered.num_exits low);
  check_int "exit count" 1 (Lowered.num_exits low);
  (* the CSR bounds are monotone and cover all ops *)
  Array.iteri
    (fun i b ->
      if i > 0 then
        check_bool "op_bounds monotone" true (b >= lr.Lowered.op_bounds.(i - 1)))
    lr.Lowered.op_bounds;
  check_int "op_bounds closed" (Lowered.num_ops low)
    lr.Lowered.op_bounds.(lr.Lowered.nbundles);
  check_int "widest bundle" 2 low.Lowered.max_bundle_ops

let test_lowered_exit_only_region () =
  (* a region that is nothing but its exit bundle, reached through a
     region transition (exercises exit-target index resolution) *)
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [ [ mov 1 (imm 3) ]; [ out (r 1) ];
            [ Pcode.exit_to Pred.always (lbl "tail") ] ];
        region "tail" [ [ Pcode.exit_stop Pred.always ] ];
      ]
  in
  let low = Lowered.compile ~machine:model pcode in
  let tail = low.Lowered.regions.(1) in
  check_int "no ops" 0 tail.Lowered.op_bounds.(tail.Lowered.nbundles);
  check_int "one exit" 1 tail.Lowered.ex_bounds.(tail.Lowered.nbundles);
  check_pinned "exit-only" (fst (run_pcode pcode)) ~cycles:4 ~output:[ 3 ]
    ~commits:0 ~squashes:0 ~sb_stalls:0 ~conflict_stalls:0

let test_lowered_single_op_region () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [ region "main" [ [ out (imm 42) ]; [ Pcode.exit_stop Pred.always ] ] ]
  in
  let low = Lowered.compile ~machine:model pcode in
  check_int "one op" 1 (Lowered.num_ops low);
  check_pinned "single-op" (fst (run_pcode pcode)) ~cycles:2 ~output:[ 42 ]
    ~commits:0 ~squashes:0 ~sb_stalls:0 ~conflict_stalls:0

let test_lowered_sb_capacity_identity () =
  (* store burst against a tiny store buffer: the stall decision fires on
     the pinned cycle *)
  let burst =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 7) ];
            [ store 1 0 20; store 1 0 21 ];
            [ store 1 0 22; store 1 0 23 ];
            [ store 1 0 24 ];
            [ out (imm 1) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let tiny =
    {
      model with
      Machine_model.sb_capacity = 2;
      Machine_model.store_units = 2;
      Machine_model.dcache_ports = 1;
    }
  in
  let low, _ = run_pcode ~machine:tiny burst in
  check_pinned "sb-capacity" low ~cycles:7 ~output:[ 1 ] ~commits:0 ~squashes:0
    ~sb_stalls:1 ~conflict_stalls:0;
  check_bool "stall path actually exercised" true
    (low.Vliw_sim.stats.Vliw_sim.sb_stall_cycles > 0)

let test_lowered_shadow_conflict_identity () =
  let pcode =
    Pcode.make ~entry:(lbl "main")
      [
        region "main"
          [
            [ mov 1 (imm 5) ];
            [
              setc 0 Opcode.Lt (r 1) (imm 10);
              mov ~pred:(p_true (cond 0)) 2 (imm 111);
              mov ~pred:(Pred.of_list [ (cond 0, false) ]) 2 (imm 222);
            ];
            [ Pcode.op Pred.always Instr.Nop ];
            [ out (r 2) ];
            [ Pcode.exit_stop Pred.always ];
          ];
      ]
  in
  let low, _ = run_pcode pcode in
  check_pinned "shadow-conflict" low ~cycles:6 ~output:[ 111 ] ~commits:1
    ~squashes:1 ~sb_stalls:0 ~conflict_stalls:1;
  check_bool "conflict path actually exercised" true
    (low.Vliw_sim.stats.Vliw_sim.shadow_conflicts >= 1)

(* Negative fixtures for the round-trip check: a two-region program,
   lowered afresh per case with one cell corrupted. Each error must name
   the region and bundle of the corrupted cell. *)
let round_trip_program () =
  Pcode.make ~entry:(lbl "main")
    [
      region "main"
        [
          [ mov 1 (imm 4) ];
          [ setc 0 Opcode.Lt (r 1) (imm 10) ];
          [ load ~pred:(p_true (cond 0)) ~shadow:[ 1 ] 2 1 0 ];
          [ store 1 1 8; Pcode.exit_to Pred.always (lbl "tail") ];
        ];
      region "tail" [ [ out (r 2); Pcode.exit_stop Pred.always ] ];
    ]

let test_lowered_check_rejects () =
  let pcode = round_trip_program () in
  let lower () = Lowered.compile ~machine:model pcode in
  Alcotest.(check (result unit string))
    "untouched lowering" (Ok ()) (Lowered.check (lower ()));
  List.iter
    (fun (what, place, corrupt) ->
      let low = lower () in
      corrupt low.Lowered.regions.(0);
      match Lowered.check low with
      | Ok () -> Alcotest.failf "%s: corrupted lowering accepted" what
      | Error e ->
          check_bool
            (Printf.sprintf "%s: %S names %s" what e place)
            true
            (String.starts_with ~prefix:place e))
    [
      ("latency", "region main bundle 2 op slot 0",
        fun lr -> lr.Lowered.op_lat.(2) <- lr.Lowered.op_lat.(2) + 1);
      ("shadow flag", "region main bundle 2 op slot 0",
        fun lr -> lr.Lowered.op_s1_sh.(2) <- false);
      ("exit target", "region main bundle 3 exit slot 0",
        fun lr -> lr.Lowered.ex_target.(0) <- 0);
      ("has_store", "region main bundle 3",
        fun lr -> lr.Lowered.has_store.(3) <- false);
      ("operand register", "region main bundle 3 op slot 0",
        fun lr -> lr.Lowered.op_s2_reg.(3) <- 2);
      ("op_bounds", "region main bundle 1",
        fun lr -> lr.Lowered.op_bounds.(2) <- 3);
    ]

(* ---------- Hardware cost ---------- *)

let test_hwcost () =
  let r = Hwcost.analyze Hwcost.default in
  check_int "three gate levels" 3 r.Hwcost.eval_gate_levels;
  check_int "region predicate bits = 2K" 8 r.Hwcost.encode_bits_region;
  check_int "trace predicate bits" 3 r.Hwcost.encode_bits_trace;
  check_bool "storage overhead near paper's 76%" true
    (r.Hwcost.storage_overhead > 0.5 && r.Hwcost.storage_overhead < 1.0);
  check_bool "commit overhead near paper's 31%" true
    (r.Hwcost.commit_overhead > 0.15 && r.Hwcost.commit_overhead < 0.5);
  check_bool "total = storage + commit" true
    (abs_float
       (r.Hwcost.total_overhead
       -. (r.Hwcost.storage_overhead +. r.Hwcost.commit_overhead))
    < 1e-9);
  (* Exact pins at the paper's design point: the cost model is pure
     arithmetic on the params, so any drift is a model change that must
     be reflected in EXPERIMENTS.md, not noise. *)
  check_int "base register file" 16384 r.Hwcost.base_transistors;
  check_bool "storage overhead exact" true
    (r.Hwcost.storage_overhead = 0.8125);
  check_bool "commit overhead exact" true
    (r.Hwcost.commit_overhead = 0.296875);
  check_bool "total overhead exact" true
    (r.Hwcost.total_overhead = 1.109375)

let test_hwcost_rob () =
  let r = Hwcost.analyze Hwcost.default in
  (* 32 entries x (32 result + 5 dst + 4 state bits) x 8T flip-flops *)
  check_int "ROB entry storage" 10496 r.Hwcost.rob_entry_transistors;
  (* 32 regs x 5 tag bits x 16T cell + 32 busy flip-flops *)
  check_int "rename map" 2816 r.Hwcost.rob_rename_transistors;
  (* 32 entries x (2 tag comparators + 1 address comparator) *)
  check_int "completion + forwarding CAMs" 13056 r.Hwcost.rob_cam_transistors;
  check_bool "ROB overhead exact" true (r.Hwcost.rob_overhead = 1.609375);
  check_bool "ROB costs more than predication on the same yardstick" true
    (r.Hwcost.rob_overhead > r.Hwcost.total_overhead)

(* ---------- the rival out-of-order backend ---------- *)

module Suite = Psb_workloads.Suite
module Dsl = Psb_workloads.Dsl

let rob_machines =
  [
    ("base", Machine_model.base);
    ("scalar", Machine_model.scalar);
    ("full-issue-8", Machine_model.full_issue ~width:8 ~max_spec_conds:8);
  ]

(* The acceptance property: the ROB backend is architecturally
   byte-identical to the DSL interpreter on the whole suite, under every
   machine model — outcome, output, written registers, final memory and
   the handled-fault count all agree, and the cycle accounting is total
   (the breakdown sums exactly to the cycle count). *)
let test_rob_suite_identical () =
  List.iter
    (fun (mname, model) ->
      List.iter
        (fun (w : Dsl.t) ->
          let tag = w.Dsl.name ^ "/" ^ mname in
          let ref_mem = w.Dsl.make_mem () in
          let s = Interp.run ~regs:w.Dsl.regs ~mem:ref_mem w.Dsl.program in
          let rob_mem = w.Dsl.make_mem () in
          let r =
            Rob_sim.run ~model ~regs:w.Dsl.regs ~mem:rob_mem w.Dsl.program
          in
          check_bool (tag ^ ": outcome") true
            (s.Interp.outcome = r.Rob_sim.outcome);
          check_bool (tag ^ ": output") true (s.Interp.output = r.Rob_sim.output);
          check_bool (tag ^ ": registers") true
            (Reg.Map.equal Int.equal s.Interp.regs r.Rob_sim.regs);
          check_bool (tag ^ ": memory") true (Memory.equal ref_mem rob_mem);
          check_int (tag ^ ": faults handled") s.Interp.faults_handled
            r.Rob_sim.faults_handled;
          check_int
            (tag ^ ": breakdown sums to cycles")
            r.cycles
            (Rob_sim.breakdown_total r.Rob_sim.breakdown))
        Suite.all)
    rob_machines

(* A wrong-path fatal fault must vanish with the squashed entry: the
   2-bit counters start weakly taken, so the first visit of [head]
   predicts [bad] — whose load dereferences a negative address (fatal) —
   while the actual path is [good]. The branch condition hangs off a
   load-fed add chain, so the wrong-path load completes (fault buffered)
   well before the branch resolves and flushes it. *)
let test_rob_squashed_fatal_fault () =
  let program =
    Asm.parse_exn
      {|
entry entry
entry:
  r1 = 0
  r9 = -64
  jmp head
head:
  r3 = load r1+0
  r4 = add r3 1
  r5 = add r4 1
  r6 = r5 < 0
  br r6 ? bad : good
bad:
  r8 = load r9+0
  jmp good
good:
  out r5
  halt
|}
  in
  let ref_mem = Memory.create ~size:64 in
  let s = Interp.run ~regs:[] ~mem:ref_mem program in
  let mem = Memory.create ~size:64 in
  let r = Rob_sim.run ~model:Machine_model.base ~regs:[] ~mem program in
  check_bool "interp halts" true (s.Interp.outcome = Interp.Halted);
  check_bool "rob halts despite the wrong-path fatal load" true
    (r.Rob_sim.outcome = Interp.Halted);
  check_bool "output" true (r.Rob_sim.output = [ 2 ]);
  check_int "one mispredict" 1 r.Rob_sim.stats.Rob_sim.mispredicts;
  check_bool "the fatal fault was buffered then squashed" true
    (r.Rob_sim.stats.Rob_sim.squashed_faults >= 1);
  check_int "no fault ever raised" 0 r.Rob_sim.faults_handled;
  check_bool "registers match interp" true
    (Reg.Map.equal Int.equal s.Interp.regs r.Rob_sim.regs)

(* The retirement timeline reconciles exactly like the VLIW machine's:
   commit-ordered Region_enter residencies telescope to the cycle total,
   and every committed entry appears as one Rob_commit. *)
let test_rob_spec_profile_reconciles () =
  let w = Suite.find "compress" in
  let events = Psb_obs.Events.create ~capacity:(1 lsl 20) () in
  let r =
    Rob_sim.run ~events ~model:Machine_model.base ~regs:w.Dsl.regs
      ~mem:(w.Dsl.make_mem ()) w.Dsl.program
  in
  let prof =
    Psb_obs.Spec_profile.of_events ~total_cycles:r.cycles events
  in
  check_bool "profile reconciles" true (Psb_obs.Spec_profile.reconciles prof);
  let commits = ref 0 in
  Psb_obs.Events.iter events (fun _cycle kind _a _b ->
      if kind = Psb_obs.Events.Rob_commit then incr commits);
  check_int "one Rob_commit per retired entry"
    r.Rob_sim.stats.Rob_sim.committed !commits

(* Rob_commit's [a] is the fetch sequence number; in-order retirement
   means it is strictly increasing over the whole run, mispredicts,
   fault restarts and all. *)
let prop_rob_commit_monotone =
  QCheck.Test.make
    ~name:"Rob_commit fetch sequence strictly increases (program order)"
    ~count:60 Gen_programs.arb_program (fun g ->
      let events = Psb_obs.Events.create ~capacity:(1 lsl 18) () in
      let _ =
        Rob_sim.run ~events ~model:Machine_model.base ~regs:Gen_programs.regs
          ~mem:(Gen_programs.make_mem g) g.Gen_programs.program
      in
      let last = ref min_int and ok = ref true in
      Psb_obs.Events.iter events (fun _cycle kind a _b ->
          if kind = Psb_obs.Events.Rob_commit then begin
            if a <= !last then ok := false;
            last := a
          end);
      !ok)

(* Direct generator-driven differential (the fuzzer runs the same check
   as a pipeline stage; this keeps a seed-replayable copy in tier 1). *)
let prop_rob_matches_interp =
  QCheck.Test.make ~name:"rob backend = scalar interpreter (arch state)"
    ~count:60 Gen_programs.arb_program (fun g ->
      let ref_mem = Gen_programs.make_mem g in
      let s =
        Interp.run ~regs:Gen_programs.regs ~mem:ref_mem g.Gen_programs.program
      in
      match s.Interp.outcome with
      | Interp.Out_of_fuel -> true (* cycle fuel is not comparable *)
      | Interp.Halted | Interp.Fatal _ ->
          let rob_mem = Gen_programs.make_mem g in
          let r =
            Rob_sim.run ~model:Machine_model.base ~regs:Gen_programs.regs
              ~mem:rob_mem g.Gen_programs.program
          in
          s.Interp.outcome = r.Rob_sim.outcome
          && s.Interp.output = r.Rob_sim.output
          && Reg.Map.equal Int.equal s.Interp.regs r.Rob_sim.regs
          && Memory.equal ref_mem rob_mem
          && s.Interp.faults_handled = r.Rob_sim.faults_handled
          && Rob_sim.breakdown_total r.Rob_sim.breakdown = r.cycles)

(* ---------- timing pins ----------

   Cycle-level results of both machines, recorded at a known-good
   commit. The differential stages compare architectural state only,
   and neither the VLIW nor the ROB has a second implementation, so
   nothing else catches a rewrite that moves a cycle. A change that
   alters timing on purpose re-records both pins and says so in
   CHANGES.md. *)

module Driver = Psb_compiler.Driver
module Model = Psb_compiler.Model
module Gen = Psb_proptest.Gen

(* per suite program on [Machine_model.base]: ROB cycles, committed and
   mispredicts; region-pred VLIW cycles, commits and squashes *)
let pinned_suite =
  [
    ("compress", (8183, 16102, 221), (12172, 3421, 4016));
    ("eqntott", (30214, 59793, 2557), (31586, 18780, 9289));
    ("espresso", (48697, 102684, 4346), (56385, 27228, 4893));
    ("grep", (19964, 64566, 230), (40161, 19619, 234));
    ("li", (21221, 32210, 1337), (25525, 7016, 5580));
    ("nroff", (18468, 55767, 241), (37546, 18124, 478));
  ]

let test_pin_suite_table () =
  let got =
    List.map
      (fun (w : Dsl.t) ->
        let r =
          Rob_sim.run ~model:Machine_model.base ~regs:w.Dsl.regs
            ~mem:(w.Dsl.make_mem ()) w.Dsl.program
        in
        let _, profile =
          Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs
            ~mem:(w.Dsl.make_mem ())
        in
        let c =
          Driver.compile ~model:Model.region_pred ~machine:Machine_model.base
            ~profile w.Dsl.program
        in
        let v = Leash.run_vliw c ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()) in
        let rs = r.Rob_sim.stats and vs = v.Vliw_sim.stats in
        ( w.Dsl.name,
          (r.Rob_sim.cycles, rs.Rob_sim.committed, rs.Rob_sim.mispredicts),
          (v.Vliw_sim.cycles, vs.Vliw_sim.commits, vs.Vliw_sim.squashes) ))
      Suite.all
  in
  let show (n, (a, b, c), (d, e, f)) =
    Printf.sprintf "(%S, (%d, %d, %d), (%d, %d, %d))" n a b c d e f
  in
  Alcotest.(check (list string))
    "suite timing on base" (List.map show pinned_suite) (List.map show got)

(* One line per run: every field of the result record. *)
let ints l = String.concat "," (List.map string_of_int l)

let pin_regs regs =
  ints (List.concat_map (fun (r, v) -> [ Reg.index r; v ]) (Reg.Map.bindings regs))

let pin_outcome o = Format.asprintf "%a" Interp.pp_outcome o

let pin_rob (r : Rob_sim.result) =
  let s = r.Rob_sim.stats in
  Printf.sprintf "%s out=%s cyc=%d dyn=%d regs=%s fh=%d st=%s bd=%s"
    (pin_outcome r.Rob_sim.outcome)
    (ints r.Rob_sim.output) r.Rob_sim.cycles r.Rob_sim.dyn_instrs
    (pin_regs r.Rob_sim.regs) r.Rob_sim.faults_handled
    (ints
       [
         s.Rob_sim.fetched; s.committed; s.squashed; s.branches; s.mispredicts;
         s.loads_forwarded; s.squashed_faults; s.fault_restarts;
         s.rob_max_occupancy; s.rob_full_stalls;
       ])
    (ints (List.map snd (Rob_sim.breakdown_fields r.Rob_sim.breakdown)))

let pin_vliw (r : Vliw_sim.result) =
  let s = r.Vliw_sim.stats in
  Printf.sprintf "%s out=%s cyc=%d regs=%s fh=%d st=%s bd=%s"
    (pin_outcome r.Vliw_sim.outcome)
    (ints r.Vliw_sim.output) r.Vliw_sim.cycles (pin_regs r.Vliw_sim.regs)
    r.Vliw_sim.faults_handled
    (ints
       [
         s.Vliw_sim.dyn_bundles; s.dyn_ops; s.squashed_ops; s.spec_ops;
         s.commits; s.squashes; s.recoveries; s.recovery_cycles;
         s.shadow_conflicts; s.conflict_stall_cycles; s.sb_max_occupancy;
         s.sb_stall_cycles; s.region_transitions;
       ])
    (ints (List.map snd (Vliw_sim.breakdown_fields r.Vliw_sim.breakdown)))

let pin_guard f = try f () with e -> "exn " ^ Printexc.to_string e

let pin_rob_machines =
  rob_machines
  @ [
      ( "small",
        {
          Machine_model.base with
          Machine_model.issue_width = 2;
          rob_size = 4;
          load_latency = 3;
          dcache_ports = 1;
          transition_penalty = 1;
        } );
    ]

(* the machine each case compiles for, and the one its code is lowered
   for and run on when that is another (the compile's own lowering
   otherwise) *)
let pin_shadow_cases =
  let infinite = { Machine_model.base with shadow = Regfile.Infinite } in
  [
    ("single", Machine_model.base, None);
    ("infinite", infinite, None);
    ("infinite-code-on-single", infinite, Some Machine_model.base);
  ]

(* the suite, then generated programs from a fixed seed, half of them
   with a nested inner loop *)
let pin_programs () =
  Suite.all
  @ List.init 40 (fun i ->
        let shape =
          if i mod 2 = 0 then Gen.default_shape
          else { Gen.default_shape with Gen.nesting = 2 }
        in
        Gen.to_dsl ~name:(Printf.sprintf "gen%d" i)
          (Gen.gen shape (Random.State.make [| 0x5eed; i |])))

let pin_lines () =
  List.concat_map
    (fun (w : Dsl.t) ->
      let program = w.Dsl.program and regs = w.Dsl.regs in
      let rob =
        List.map
          (fun (mname, model) ->
            Printf.sprintf "%s rob/%s %s" w.Dsl.name mname
              (pin_guard (fun () ->
                   pin_rob
                     (Rob_sim.run ~fuel:2_000_000 ~model ~regs
                        ~mem:(w.Dsl.make_mem ()) program))))
          pin_rob_machines
      in
      let _, profile = Driver.profile_of program ~regs ~mem:(w.Dsl.make_mem ()) in
      let vliw =
        List.concat_map
          (fun (model : Model.t) ->
            List.map
              (fun (sname, machine, run_on) ->
                let tag =
                  Printf.sprintf "%s %s/%s" w.Dsl.name model.Model.name sname
                in
                match
                  Driver.compile ~verify:false ~model ~machine ~profile program
                with
                | exception e -> tag ^ " compile " ^ Printexc.to_string e
                | c ->
                    tag ^ " "
                    ^ pin_guard (fun () ->
                          let lowered =
                            match run_on with
                            | None -> Option.get c.Driver.lowered
                            | Some machine ->
                                Lowered.compile ~machine
                                  (Option.get c.Driver.pcode)
                          in
                          pin_vliw
                            (Vliw_sim.run ~fuel:Leash.fuel ~regs
                               ~mem:(w.Dsl.make_mem ()) lowered)))
              pin_shadow_cases)
          (List.filter (fun (m : Model.t) -> m.Model.executable) Model.all)
      in
      rob @ vliw)
    (pin_programs ())

let pinned_digest = "705d290212f04283f513d371139bc3f6"

let test_pin_digest () =
  let lines = pin_lines () in
  Alcotest.(check string)
    (Printf.sprintf "digest of %d result records" (List.length lines))
    pinned_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* The result records above say nothing of the order in which a run
   committed, squashed, deferred and entered: these digests hold every
   event of the ROB on each pin machine and of region-pred on the VLIW,
   over the pin programs, as (cycle, kind, a, b). Region ids are hashed
   as their names, so the digest does not depend on which runs shared
   the ring. The ring is large enough that no run drops an event. *)
let pin_ring = Psb_obs.Events.create ~capacity:(1 lsl 20) ()

let ring_line tag run =
  let module E = Psb_obs.Events in
  E.clear pin_ring;
  let ran = pin_guard (fun () -> run pin_ring; "ok") in
  let b = Buffer.create (1 lsl 16) in
  let region id = Buffer.add_string b (E.name pin_ring id) in
  E.iter pin_ring (fun cycle kind a bb ->
      Buffer.add_string b (string_of_int cycle);
      Buffer.add_char b ' ';
      Buffer.add_string b (E.kind_name kind);
      Buffer.add_char b ' ';
      (match kind with
      | E.Region_enter | E.Region_exit -> region a
      | _ -> Buffer.add_string b (string_of_int a));
      Buffer.add_char b ' ';
      (match kind with
      | E.Region_exit -> region bb
      | _ -> Buffer.add_string b (string_of_int bb));
      Buffer.add_char b '\n');
  check_int (tag ^ ": events dropped") 0 (E.dropped pin_ring);
  Printf.sprintf "%s %s events=%d %s" tag ran (E.total pin_ring)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let ring_lines () =
  List.concat_map
    (fun (w : Dsl.t) ->
      let program = w.Dsl.program and regs = w.Dsl.regs in
      let rob =
        List.map
          (fun (mname, model) ->
            ring_line (Printf.sprintf "%s rob/%s" w.Dsl.name mname) (fun events ->
                ignore
                  (Rob_sim.run ~fuel:2_000_000 ~events ~model ~regs
                     ~mem:(w.Dsl.make_mem ()) program)))
          pin_rob_machines
      in
      let _, profile = Driver.profile_of program ~regs ~mem:(w.Dsl.make_mem ()) in
      let vliw =
        ring_line (Printf.sprintf "%s vliw/region-pred" w.Dsl.name) (fun events ->
            let c =
              Driver.compile ~verify:false ~model:Model.region_pred
                ~machine:Machine_model.base ~profile program
            in
            ignore (Leash.run_vliw ~events c ~regs ~mem:(w.Dsl.make_mem ())))
      in
      rob @ [ vliw ])
    (pin_programs ())

let pinned_ring_digest = "5eeef3444e31041e35a23785e92d97cd"

let test_pin_ring_digest () =
  let lines = ring_lines () in
  Alcotest.(check string)
    (Printf.sprintf "digest of %d event rings" (List.length lines))
    pinned_ring_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* The interpreter's result records: every field, and the final memory
   as its nonzero words and its unmapped pages. The suite and extras run
   on their own memories; generated programs at the default shape, at
   nesting 2 and at a high fault rate; and the corpus program whose
   store faults on a demand page, the one program here that handles a
   write fault. The oracle property draws fresh programs on every run;
   this pin holds the same ones every run. *)
let interp_pin_programs () =
  let gen k n shape =
    List.init n (fun i ->
        Gen.to_dsl ~name:(Printf.sprintf "gen%d.%d" k i)
          (Gen.gen shape (Random.State.make [| 0x5ca1; k; i |])))
  in
  let corpus =
    match Psb_proptest.Corpus.load "corpus/cx-493494542fa7.psbasm" with
    | Ok g -> Gen.to_dsl ~name:"cx-493494542fa7" g
    | Error e -> Alcotest.fail e
  in
  Suite.all @ Suite.extras
  @ gen 0 300 Gen.default_shape
  @ gen 1 300 { Gen.default_shape with Gen.nesting = 2 }
  @ gen 2 100 { Gen.default_shape with Gen.fault_prob = 0.3 }
  @ [ corpus ]

let pin_memory mem =
  let words = ref [] and unmapped = ref [] in
  for a = Memory.size mem - 1 downto 0 do
    let v = Memory.peek mem a in
    if v <> 0 then words := a :: v :: !words;
    if a mod Memory.page_size = 0 && Memory.probe mem a <> None then
      unmapped := a :: !unmapped
  done;
  Printf.sprintf "words=%s unmapped=%s" (ints !words) (ints !unmapped)

let pin_interp (w : Dsl.t) =
  let mem = w.Dsl.make_mem () in
  let r = Interp.run ~regs:w.Dsl.regs ~mem w.Dsl.program in
  Printf.sprintf "%s %s out=%s cyc=%d dyn=%d trace=%s regs=%s fh=%d %s"
    w.Dsl.name (pin_outcome r.Interp.outcome) (ints r.Interp.output)
    r.Interp.cycles r.Interp.dyn_instrs
    (ints (Array.to_list r.Interp.block_trace))
    (pin_regs r.Interp.regs) r.Interp.faults_handled (pin_memory mem)

let pinned_interp_digest = "ba9dc857860fcc7bc37b25b6c60e7769"

let test_pin_interp () =
  let lines = List.map pin_interp (interp_pin_programs ()) in
  Alcotest.(check string)
    (Printf.sprintf "digest of %d interpreter records" (List.length lines))
    pinned_interp_digest
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* ---------- allocation bounds ----------

   The cycle loops allocate nothing per simulated cycle or per
   operation: a long run allocates what a short one does, up to the
   tolerance. The only per-operation allocation left is one record per
   store-buffer entry (and per buffered version in the Infinite shadow
   model, which these loops do not run). [Gc.minor_words] returns a
   boxed float, which the tolerance absorbs. *)

let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Words allocated by a run of [n] iterations, after a warm-up run. *)
let words_per_run run n =
  ignore (run 10);
  minor_words_of (fun () -> ignore (run n))

let check_flat name ~small ~large =
  check_bool
    (Printf.sprintf "%s: no per-iteration allocation (%.0f -> %.0f words)" name
       small large)
    true
    (large -. small < 4096.)

(* A counted loop with a load and a branch on the counter's parity, which
   the 2-bit predictor keeps mispredicting. *)
let rob_loop =
  Asm.parse_exn
    {|
entry entry
entry:
  r2 = 0
  r5 = 0
  jmp head
head:
  r3 = load r2+0
  r4 = and r1 1
  br r4 ? odd : even
odd:
  r5 = add r5 r3
  jmp next
even:
  r5 = sub r5 1
  jmp next
next:
  r1 = sub r1 1
  r6 = r1 > 0
  br r6 ? head : done
done:
  halt
|}

(* The word [rob_loop] loads, written first: a load that finds a written
   word must not allocate either. *)
let loaded_mem () =
  let mem = Memory.create ~size:16 in
  Memory.poke mem 0 3;
  mem

let test_rob_no_alloc () =
  let decoded = Decoded.of_program rob_loop in
  let run n =
    Rob_sim.run ~decoded ~model:Machine_model.base
      ~regs:[ (reg 1, n) ]
      ~mem:(loaded_mem ()) rob_loop
  in
  let r = run 1_000 in
  check_bool "halts" true (r.Rob_sim.outcome = Interp.Halted);
  check_bool "mispredicts" true (r.Rob_sim.stats.Rob_sim.mispredicts > 100);
  check_flat "rob" ~small:(words_per_run run 1_000)
    ~large:(words_per_run run 100_000)

let alu ?(pred = Pred.always) op d a b =
  Pcode.op pred (Instr.Alu { op; dst = reg d; a; b })

(* One region that loops on itself while r1 counts down; the op in the
   second bundle is speculative when [spec] (its condition is written in
   the same bundle, so it is unspecified at issue). The first bundle
   loads the word [loaded_mem] writes, non-speculatively. *)
let vliw_loop ~spec =
  let pred = if spec then p_true (cond 0) else Pred.always in
  Lowered.compile ~machine:model
  @@ Pcode.make ~entry:(lbl "loop")
    [
      region "loop"
        [
          [
            alu Opcode.Sub 1 (r 1) (imm 1);
            alu Opcode.Add 2 (r 2) (imm 3);
            Pcode.op Pred.always (Instr.Load { dst = reg 4; base = reg 0; off = 0 });
          ];
          [ setc 0 Opcode.Gt (r 1) (imm 0); alu ~pred Opcode.Add 3 (r 3) (imm 1) ];
          [
            Pcode.exit_to (p_true (cond 0)) (lbl "loop");
            Pcode.exit_stop (Pred.of_list [ (cond 0, false) ]);
          ];
        ];
    ]

let vliw_loop_run code n =
  Vliw_sim.run ~regs:[ (reg 1, n) ] ~mem:(loaded_mem ()) code

let test_vliw_nonspec_no_alloc () =
  let pcode = vliw_loop ~spec:false in
  let r = vliw_loop_run pcode 1_000 in
  check_bool "halts" true (r.Vliw_sim.outcome = Interp.Halted);
  check_int "no speculation" 0 r.Vliw_sim.stats.Vliw_sim.spec_ops;
  check_flat "vliw" ~small:(words_per_run (vliw_loop_run pcode) 1_000)
    ~large:(words_per_run (vliw_loop_run pcode) 100_000)

(* The single-shadow register file buffers a version in its own banks,
   so a speculative write allocates nothing either. *)
let test_vliw_spec_write_no_alloc () =
  let pcode = vliw_loop ~spec:true in
  let r = vliw_loop_run pcode 1_000 in
  check_bool "halts" true (r.Vliw_sim.outcome = Interp.Halted);
  check_int "one speculative write per iteration" 1_000
    r.Vliw_sim.stats.Vliw_sim.spec_ops;
  (* c0 is false on the last iteration *)
  check_int "commits" 999 r.Vliw_sim.stats.Vliw_sim.commits;
  check_int "squashes" 1 r.Vliw_sim.stats.Vliw_sim.squashes;
  check_flat "speculative vliw"
    ~small:(words_per_run (vliw_loop_run pcode) 1_000)
    ~large:(words_per_run (vliw_loop_run pcode) 100_000)

(* An attached event ring costs no allocation either: emission writes
   flat arrays and interning a known region name allocates nothing, so
   all three machines stay flat with a small ring that wraps many times
   over. *)
let test_ring_attached_no_alloc () =
  let ring = Psb_obs.Events.create ~capacity:1024 () in
  let flat name run =
    check_flat name ~small:(words_per_run run 1_000)
      ~large:(words_per_run run 100_000)
  in
  let regs n = [ (reg 1, n) ] and mem = loaded_mem in
  let pcode = vliw_loop ~spec:false in
  flat "vliw with a ring" (fun n ->
      Vliw_sim.run ~events:ring ~regs:(regs n) ~mem:(mem ()) pcode);
  let decoded = Decoded.of_program rob_loop in
  flat "rob with a ring" (fun n ->
      Rob_sim.run ~events:ring ~decoded ~model:Machine_model.base
        ~regs:(regs n) ~mem:(mem ()) rob_loop);
  flat "scalar with a ring" (fun n ->
      Scalar_sim.run ~events:ring ~record_trace:false ~regs:(regs n)
        ~mem:(mem ()) rob_loop)

(* ---------- predecoded scalar form (Decoded) ---------- *)

(* Edge shapes of the decoded form: it must raise back to the program
   ([Decoded.check]), the interpreter must be cycle-exact against the
   tree walk ([Interp_oracle]), and the ROB, which walks the same form,
   architecturally identical to the interpreter. The broad random
   coverage lives in the differential suite and the fuzzer. *)

let default_mem () = Memory.create ~size:64

let run_both_scalar ?fuel ?(mem_of = default_mem) program =
  let decoded = Decoded.of_program program in
  Alcotest.(check (result unit string)) "decoded form round-trips" (Ok ())
    (Decoded.check decoded);
  let dmem = mem_of () and tmem = mem_of () in
  ( (Interp.run ?fuel ~decoded ~regs:[] ~mem:dmem program, dmem),
    (Interp_oracle.run ?fuel ~regs:[] ~mem:tmem program, tmem) )

let check_scalar_identical name ((dec, dmem), (tree, tmem)) =
  check_bool (name ^ ": outcome") true
    (dec.Interp.outcome = tree.Interp.outcome);
  Alcotest.(check (list int))
    (name ^ ": output") tree.Interp.output dec.Interp.output;
  check_int (name ^ ": cycles") tree.Interp.cycles dec.Interp.cycles;
  check_int (name ^ ": dyn instrs") tree.Interp.dyn_instrs
    dec.Interp.dyn_instrs;
  check_bool (name ^ ": trace") true
    (tree.Interp.block_trace = dec.Interp.block_trace);
  check_bool (name ^ ": regs") true
    (Reg.Map.equal Int.equal tree.Interp.regs dec.Interp.regs);
  check_int (name ^ ": faults") tree.Interp.faults_handled
    dec.Interp.faults_handled;
  check_bool (name ^ ": memory") true (Memory.equal tmem dmem)

let run_rob ?fuel ?(mem_of = default_mem) program =
  let mem = mem_of () in
  ( Rob_sim.run ?fuel ~decoded:(Decoded.of_program program)
      ~model:Machine_model.base ~regs:[] ~mem program,
    mem )

let check_rob_breakdown name (rob : Rob_sim.result) =
  check_int (name ^ ": breakdown sums to cycles") rob.cycles
    (Rob_sim.breakdown_total rob.Rob_sim.breakdown)

(* The ROB against the interpreter: outcome, output, registers, memory
   and handled faults, plus the ROB's own accounting contract. *)
let check_rob_arch ?(mem_of = default_mem) name program =
  let imem = mem_of () in
  let interp = Interp.run ~regs:[] ~mem:imem program in
  let rob, rmem = run_rob ~mem_of program in
  check_bool (name ^ ": outcome") true
    (interp.Interp.outcome = rob.Rob_sim.outcome);
  Alcotest.(check (list int))
    (name ^ ": output") interp.Interp.output rob.Rob_sim.output;
  check_bool (name ^ ": regs") true
    (Reg.Map.equal Int.equal interp.Interp.regs rob.Rob_sim.regs);
  check_bool (name ^ ": memory") true (Memory.equal imem rmem);
  check_int (name ^ ": faults") interp.Interp.faults_handled
    rob.Rob_sim.faults_handled;
  check_rob_breakdown name rob

let test_decoded_empty_blocks () =
  (* blocks with no operations at all — only terminators — including the
     entry block; op_bounds must still be a valid (degenerate) CSR *)
  let program =
    Program.make ~entry:(lbl "entry")
      [
        Program.block (lbl "entry") [] (Instr.Jmp (lbl "mid"));
        Program.block (lbl "mid") [] (Instr.Jmp (lbl "tail"));
        Program.block (lbl "tail")
          [ Instr.Mov { dst = reg 1; src = imm 7 }; Instr.Out (r 1) ]
          Instr.Halt;
      ]
  in
  let decoded = Decoded.of_program program in
  check_int "entry has no ops" 0
    (Decoded.block_ops decoded (Decoded.block_index decoded (lbl "entry")));
  check_int "two flat ops in total" 2 (Decoded.num_ops decoded);
  check_scalar_identical "empty-blocks" (run_both_scalar program);
  check_rob_arch "empty-blocks/rob" program

let test_decoded_fallthrough_only () =
  (* a conditional whose both arms are op-less forwarding blocks that
     reconverge — control flows through without touching the op arrays,
     and the 2-bit predictor in the ROB frontend sees the branch *)
  let program =
    Asm.parse_exn
      {|
entry entry
entry:
  r1 = 0
  jmp head
head:
  r2 = r1 < 3
  br r2 ? stay : leave
stay:
  jmp body
body:
  r1 = add r1 1
  out r1
  jmp head
leave:
  jmp tail
tail:
  halt
|}
  in
  check_scalar_identical "fallthrough-only" (run_both_scalar program);
  check_rob_arch "fallthrough-only/rob" program

let test_decoded_fault_on_first_instr () =
  (* instruction 0 of the entry block faults before anything else ran:
     recoverable on demand memory (handled, retried), fatal on a
     negative address *)
  let recoverable =
    Program.make ~entry:(lbl "entry")
      [
        Program.block (lbl "entry")
          [
            Instr.Load { dst = reg 1; base = reg 0; off = 200 };
            Instr.Out (r 1);
          ]
          Instr.Halt;
      ]
  in
  let demand () = Memory.create_demand ~size:512 ~unmapped:(128, 384) in
  let ((dec, _), _) as both =
    run_both_scalar ~mem_of:demand recoverable
  in
  check_scalar_identical "fault-instr0" both;
  check_int "fault was handled" 1 dec.Interp.faults_handled;
  check_rob_arch ~mem_of:demand "fault-instr0/rob" recoverable;
  let fatal =
    Program.make ~entry:(lbl "entry")
      [
        Program.block (lbl "entry")
          [ Instr.Load { dst = reg 1; base = reg 0; off = -4 } ]
          Instr.Halt;
      ]
  in
  let ((dec, _), _) as both = run_both_scalar fatal in
  check_scalar_identical "fatal-instr0" both;
  check_bool "run is fatal" true
    (match dec.Interp.outcome with Interp.Fatal _ -> true | _ -> false);
  check_rob_arch "fatal-instr0/rob" fatal

let test_decoded_out_of_fuel_mid_block () =
  (* the fuel runs dry in the middle of a block body: the interpreter
     and the oracle sample the budget at block entry only, so both must
     overshoot to exactly the same boundary, trace included *)
  let body =
    List.init 10 (fun i ->
        Instr.Alu
          { op = Opcode.Add; dst = reg 1; a = r 1; b = imm (i + 1) })
  in
  let program =
    Program.make ~entry:(lbl "entry")
      [ Program.block (lbl "entry") body (Instr.Jmp (lbl "entry")) ]
  in
  let ((dec, _), _) as both = run_both_scalar ~fuel:25 program in
  check_scalar_identical "fuel-mid-block" both;
  check_bool "actually out of fuel" true
    (dec.Interp.outcome = Interp.Out_of_fuel);
  check_bool "budget expired mid-block, stopped at the next boundary" true
    (dec.Interp.dyn_instrs > 25);
  (* the ROB's fuel is cycles, not instructions, so it stops at a point
     the interpreter never does: no architectural comparison, only the
     outcome and the accounting contract *)
  let rob, _ = run_rob ~fuel:7 program in
  check_bool "rob out of fuel" true (rob.Rob_sim.outcome = Interp.Out_of_fuel);
  check_rob_breakdown "fuel-mid-block/rob" rob

let test_decoded_fuel_boundary () =
  (* fuel is sampled at block entry: a block entered with exactly [fuel]
     instructions behind it runs, one instruction more does not *)
  let program =
    Program.make ~entry:(lbl "entry")
      [
        Program.block (lbl "entry")
          [
            Instr.Mov { dst = reg 1; src = imm 1 };
            Instr.Mov { dst = reg 2; src = imm 2 };
          ]
          (Instr.Jmp (lbl "next"));
        Program.block (lbl "next") [ Instr.Out (r 1) ] Instr.Halt;
      ]
  in
  let run fuel = Interp.run ~fuel ~regs:[] ~mem:(default_mem ()) program in
  let at = run 3 in
  check_bool "fuel 3: halted" true (at.Interp.outcome = Interp.Halted);
  check_int "fuel 3: dyn instrs" 5 at.Interp.dyn_instrs;
  check_int "fuel 3: cycles" 5 at.Interp.cycles;
  Alcotest.(check (list int)) "fuel 3: output" [ 1 ] at.Interp.output;
  Alcotest.(check (array int)) "fuel 3: trace" [| 0; 1 |] at.Interp.block_trace;
  let short = run 2 in
  check_bool "fuel 2: out of fuel" true
    (short.Interp.outcome = Interp.Out_of_fuel);
  check_int "fuel 2: dyn instrs" 3 short.Interp.dyn_instrs;
  check_int "fuel 2: cycles" 3 short.Interp.cycles;
  Alcotest.(check (list int)) "fuel 2: output" [] short.Interp.output;
  Alcotest.(check (array int)) "fuel 2: trace" [| 0 |] short.Interp.block_trace

let test_decoded_stale_form_rejected () =
  (* both scalar backends must reject a decoded form that was not built
     from the exact program value (the driver-cache hazard: structural
     equality is not enough) *)
  let make () =
    Program.make ~entry:(lbl "entry")
      [ Program.block (lbl "entry") [ Instr.Out (imm 1) ] Instr.Halt ]
  in
  let program = make () in
  let other = make () in
  let stale = Decoded.of_program other in
  (match
     Interp.run ~decoded:stale ~regs:[] ~mem:(Memory.create ~size:64) program
   with
  | _ -> Alcotest.fail "interp accepted a stale decoded form"
  | exception Invalid_argument _ -> ());
  match
    Rob_sim.run ~decoded:stale ~model:Machine_model.base ~regs:[]
      ~mem:(Memory.create ~size:64) program
  with
  | _ -> Alcotest.fail "rob accepted a stale decoded form"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "machine"
    [
      ( "ccr",
        [
          Alcotest.test_case "basic" `Quick test_ccr_basic;
          Alcotest.test_case "eval" `Quick test_ccr_eval;
          Alcotest.test_case "assign" `Quick test_ccr_assign;
        ] );
      ( "regfile",
        [
          Alcotest.test_case "commit" `Quick test_regfile_commit;
          Alcotest.test_case "squash" `Quick test_regfile_squash;
          Alcotest.test_case "shadow fallback" `Quick test_regfile_shadow_fallback;
          Alcotest.test_case "conflict" `Quick test_regfile_conflict;
          Alcotest.test_case "infinite mode" `Quick test_regfile_infinite_mode;
          Alcotest.test_case "exception buffering" `Quick
            test_regfile_exception_buffering;
        ] );
      ( "store-buffer",
        [
          Alcotest.test_case "fifo drain" `Quick test_sb_fifo_drain;
          Alcotest.test_case "spec blocks drain" `Quick test_sb_spec_blocks_drain;
          Alcotest.test_case "squash" `Quick test_sb_squash;
          Alcotest.test_case "forwarding" `Quick test_sb_forwarding;
        ] );
      ( "vliw",
        [
          Alcotest.test_case "diamond commit" `Quick test_vliw_diamond_commit;
          Alcotest.test_case "diamond squash" `Quick test_vliw_diamond_squash;
          Alcotest.test_case "spec store commit" `Quick test_vliw_spec_store_commit;
          Alcotest.test_case "spec store squash" `Quick test_vliw_spec_store_squash;
          Alcotest.test_case "recovery (recoverable)" `Quick
            test_vliw_recovery_recoverable;
          Alcotest.test_case "no recovery when mapped" `Quick
            test_vliw_recovery_dependent_reexecuted;
          Alcotest.test_case "fatal committed exception" `Quick
            test_vliw_fatal_committed_exception;
          Alcotest.test_case "squashed fault ignored" `Quick
            test_vliw_squashed_fault_ignored;
          Alcotest.test_case "region transition" `Quick test_vliw_region_transition;
          Alcotest.test_case "committed store outlives its region" `Quick
            test_vliw_committed_store_outlives_region;
          Alcotest.test_case "first true exit fires" `Quick
            test_vliw_first_true_exit;
          Alcotest.test_case "shadow source fetch" `Quick
            test_vliw_shadow_source_fetch;
          Alcotest.test_case "out of fuel" `Quick test_vliw_out_of_fuel;
          Alcotest.test_case "conflict stall" `Quick test_vliw_conflict_stall;
          Alcotest.test_case "double recovery" `Quick test_vliw_double_recovery;
          Alcotest.test_case "recovery regenerates store" `Quick
            test_vliw_recovery_regenerates_store;
          Alcotest.test_case "fatal during recovery" `Quick
            test_vliw_fatal_during_recovery;
          Alcotest.test_case "store-buffer capacity" `Quick
            test_vliw_sb_capacity_stall;
        ] );
      ( "bad-code",
        [
          Alcotest.test_case "machine rejects invalid schedules" `Quick
            test_vliw_bad_code_rejected;
        ] );
      ( "widths",
        [ Alcotest.test_case "1/2/8-issue agree" `Quick test_vliw_widths_agree ] );
      ( "pcode-text",
        [
          Alcotest.test_case "round trip" `Quick test_pcode_text_roundtrip;
          Alcotest.test_case "errors" `Quick test_pcode_text_errors;
        ] );
      ( "paper-example",
        [
          Alcotest.test_case "figure 4 / table 1" `Quick test_paper_figure4;
          Alcotest.test_case "figure 5 recovery" `Quick test_paper_figure5;
        ] );
      ( "pred-kernel",
        [
          Qc.to_alcotest prop_mask_eval_agrees;
          Qc.to_alcotest prop_mask_eval_tracks_resets;
          Qc.to_alcotest prop_dirty_gating_never_delays;
          Alcotest.test_case "regfile dirty gating" `Quick
            test_regfile_dirty_gating;
          Alcotest.test_case "store-buffer fresh entry" `Quick
            test_sb_dirty_gating_fresh_entry;
          Alcotest.test_case "same-cycle condition writes" `Quick
            test_vliw_dirty_gating_same_cycle_conds;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "flat shape" `Quick test_lowered_shape;
          Alcotest.test_case "exit-only region" `Quick
            test_lowered_exit_only_region;
          Alcotest.test_case "single-op region" `Quick
            test_lowered_single_op_region;
          Alcotest.test_case "sb-capacity identity" `Quick
            test_lowered_sb_capacity_identity;
          Alcotest.test_case "shadow-conflict identity" `Quick
            test_lowered_shadow_conflict_identity;
          Alcotest.test_case "round trip rejects corruption" `Quick
            test_lowered_check_rejects;
        ] );
      ( "hwcost",
        [
          Alcotest.test_case "paper numbers" `Quick test_hwcost;
          Alcotest.test_case "rival ROB columns" `Quick test_hwcost_rob;
        ] );
      ( "rob",
        [
          Alcotest.test_case "suite byte-identical x machine models" `Quick
            test_rob_suite_identical;
          Alcotest.test_case "squashed fatal fault vanishes" `Quick
            test_rob_squashed_fatal_fault;
          Alcotest.test_case "speculation profile reconciles" `Quick
            test_rob_spec_profile_reconciles;
          Qc.to_alcotest prop_rob_commit_monotone;
          Qc.to_alcotest prop_rob_matches_interp;
        ] );
      ( "timing-pins",
        [
          Alcotest.test_case "suite on the base machine" `Quick
            test_pin_suite_table;
          Alcotest.test_case "result-record digest" `Quick test_pin_digest;
          Alcotest.test_case "event-ring digest" `Quick test_pin_ring_digest;
          Alcotest.test_case "interpreter records pinned" `Quick
            test_pin_interp;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "rob loop allocates nothing per iteration" `Quick
            test_rob_no_alloc;
          Alcotest.test_case "non-speculative vliw loop allocates nothing"
            `Quick test_vliw_nonspec_no_alloc;
          Alcotest.test_case "speculative vliw loop allocates nothing" `Quick
            test_vliw_spec_write_no_alloc;
          Alcotest.test_case "machines with a ring attached allocate nothing"
            `Quick test_ring_attached_no_alloc;
        ] );
      ( "decoded",
        [
          Alcotest.test_case "empty blocks" `Quick test_decoded_empty_blocks;
          Alcotest.test_case "fallthrough-only blocks" `Quick
            test_decoded_fallthrough_only;
          Alcotest.test_case "fault on instruction 0" `Quick
            test_decoded_fault_on_first_instr;
          Alcotest.test_case "out of fuel mid-block" `Quick
            test_decoded_out_of_fuel_mid_block;
          Alcotest.test_case "fuel boundary" `Quick test_decoded_fuel_boundary;
          Alcotest.test_case "stale form rejected" `Quick
            test_decoded_stale_form_rejected;
        ] );
    ]
