(* The static speculation-safety verifier (lib/verify):

   - positive: every Suite workload (extras included), compiled for every
     executable model, verifies cleanly — on the base machine and on a
     full-issue one, with and without commit-dependence avoidance;
   - negative: four hand-written pcode fixtures, one per check class,
     each producing exactly one structured diagnostic of its class;
   - the report serialises (JSON round-trip) and exports metrics;
   - qcheck: a compiled program mutated to demand a second shadow
     version of a register is rejected by the verifier, and the machine,
     running the same mutated code, flags the hazard (shadow-conflict
     stall or machine error) instead of miscommitting silently. *)

open Psb_isa
open Psb_compiler
module Machine_model = Psb_machine.Machine_model
module Pcode = Psb_machine.Pcode
module Vliw_sim = Psb_machine.Vliw_sim
module Events = Psb_obs.Events
module Verify = Psb_verify.Verify
module Dsl = Psb_workloads.Dsl
module Suite = Psb_workloads.Suite

let machine = Machine_model.base

let executable_models =
  List.filter
    (fun (m : Model.t) -> m.Model.executable)
    (Model.trace_pred_counter :: Model.all)

(* ----- positive: the whole suite verifies ----- *)

let pcode_of ?(avoid_commit_deps = false) ~model ~machine (w : Dsl.t) =
  let _, profile =
    Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
  in
  let compiled =
    Driver.compile ~verify:false ~avoid_commit_deps ~model ~machine ~profile
      w.Dsl.program
  in
  Option.get compiled.Driver.pcode

let test_suite_verifies () =
  List.iter
    (fun (w : Dsl.t) ->
      List.iter
        (fun (model : Model.t) ->
          List.iter
            (fun (mname, machine) ->
              List.iter
                (fun avoid_commit_deps ->
                  let code =
                    pcode_of ~avoid_commit_deps ~model ~machine w
                  in
                  let r = Verify.run machine code in
                  if not (Verify.ok r) then
                    Alcotest.failf "%s/%s/%s (acd=%b): %a" w.Dsl.name
                      model.Model.name mname avoid_commit_deps Verify.pp r)
                [ false; true ])
            [
              ("base", Machine_model.base);
              ("full8", Machine_model.full_issue ~width:8 ~max_spec_conds:8);
            ])
        executable_models)
    (Suite.all @ Suite.extras)

let test_driver_verifies_by_default () =
  (* the default compile path runs the verifier and reports its pass *)
  let w = Suite.find "li" in
  let _, profile =
    Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
  in
  let metrics = Psb_obs.Metrics.create () in
  let _ =
    Driver.compile ~metrics ~model:Model.region_pred ~machine ~profile
      w.Dsl.program
  in
  let passes =
    Psb_obs.Metrics.(counter_value (counter metrics "verify_passes"))
  in
  Alcotest.(check bool) "verify ran and passed" true (passes >= 1)

(* ----- negative fixtures, one per check class ----- *)

let lbl = Label.make
let p_c0 = Pred.of_list [ (Cond.make 0, true) ]
let p_nc0 = Pred.of_list [ (Cond.make 0, false) ]

let mov ?(pred = Pred.always) dst v =
  Pcode.op pred (Instr.Mov { dst = Reg.make dst; src = Operand.imm v })

let setc c =
  Pcode.op Pred.always
    (Instr.Setc
       {
         dst = Cond.make c;
         op = Opcode.Lt;
         a = Operand.reg (Reg.make 0);
         b = Operand.imm 1;
       })

let prog name code =
  Pcode.make ~entry:(lbl name)
    [ { Pcode.name = lbl name; code; source_blocks = [] } ]

(* wellformed: a predicate reads a condition no Setc in the region
   writes, so it can never resolve *)
let fix_wellformed =
  prog "f-wf" [| [ mov ~pred:p_c0 1 1 ]; [ Pcode.exit_stop Pred.always ] |]

(* capacity: two disjoint speculative writers of r1 in flight at once —
   the second demands a shadow version while the first still holds it *)
let fix_capacity =
  prog "f-cap"
    [|
      [ mov ~pred:p_c0 1 1; mov ~pred:p_nc0 1 2 ];
      [];
      [ setc 0 ];
      [ Pcode.exit_stop Pred.always ];
    |]

(* recovery: an Out can issue while its predicate is unspecified; its
   effect is neither buffered nor squashable on re-execution *)
let fix_recovery =
  prog "f-rec"
    [|
      [ Pcode.op p_c0 (Instr.Out (Operand.imm 7)) ];
      [ setc 0 ];
      [ Pcode.exit_stop Pred.always ];
    |]

(* commit order: a buffered speculative write commits after a later
   non-disjoint predicated write retires, clobbering it with the stale
   value.  Both writers are predicated on different conditions (the
   unpredicated case is the exempted join-duplication select idiom):
   c1 resolves before the second write retires, so it lands in the
   sequential file while the c0 write is still parked in the shadow. *)
let p_c1 = Pred.of_list [ (Cond.make 1, true) ]

let fix_commit_order =
  prog "f-waw"
    [|
      [ mov ~pred:p_c0 1 1; setc 1 ];
      [ mov ~pred:p_c1 1 2 ];
      [ setc 0 ];
      [ Pcode.exit_stop Pred.always ];
    |]

let fixtures =
  [
    (Verify.Wellformed, fix_wellformed);
    (Verify.Capacity, fix_capacity);
    (Verify.Recovery, fix_recovery);
    (Verify.Commit_order, fix_commit_order);
  ]

let single_violation check p =
  let r = Verify.run machine p in
  Alcotest.(check int)
    (Verify.check_name check ^ ": one violation")
    1
    (List.length r.Verify.violations);
  let v = List.hd r.Verify.violations in
  Alcotest.(check string)
    (Verify.check_name check ^ ": class")
    (Verify.check_name check)
    (Verify.check_name v.Verify.check);
  v

let test_fixture (check, p) () =
  let v = single_violation check p in
  (* structured: the diagnostic carries a precise program location *)
  Alcotest.(check bool) "has bundle" true (v.Verify.loc.Verify.bundle <> None);
  Alcotest.(check bool) "has slot" true (v.Verify.loc.Verify.slot <> None);
  Alcotest.(check bool) "has message" true (String.length v.Verify.message > 0)

let test_fixtures_distinct () =
  (* the four fixtures exercise four different check classes and four
     different diagnostics *)
  let vs = List.map (fun (c, p) -> single_violation c p) fixtures in
  let names =
    List.sort_uniq compare
      (List.map (fun v -> Verify.check_name v.Verify.check) vs)
  in
  Alcotest.(check int) "distinct classes" 4 (List.length names);
  let msgs =
    List.sort_uniq compare (List.map (fun v -> v.Verify.message) vs)
  in
  Alcotest.(check int) "distinct messages" 4 (List.length msgs)

let test_report_json () =
  let r = Verify.run machine fix_capacity in
  let j = Verify.to_json r in
  (* round-trips through the strict parser *)
  (match Psb_obs.Json.parse (Psb_obs.Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "round-trip" true (Psb_obs.Json.equal j j')
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e);
  let member name = Psb_obs.Json.member name j in
  Alcotest.(check (option bool))
    "ok member" (Some false)
    (Option.map (function Psb_obs.Json.Bool b -> b | _ -> true) (member "ok"));
  Alcotest.(check int) "violations member" 1
    (List.length (Psb_obs.Json.to_list (Option.get (member "violations"))))

let test_report_metrics () =
  let m = Psb_obs.Metrics.create () in
  Verify.observe_metrics (Verify.run machine fix_capacity) m;
  Verify.observe_metrics (Verify.run machine (pcode_of ~model:Model.region_pred ~machine (Suite.find "li"))) m;
  let c name labels =
    Psb_obs.Metrics.(counter_value (counter m name ~labels))
  in
  Alcotest.(check int) "failures" 1 (c "verify_failures" []);
  Alcotest.(check int) "passes" 1 (c "verify_passes" []);
  Alcotest.(check int) "capacity violations" 1
    (c "verify_violations" [ ("check", "capacity") ]);
  Alcotest.(check int) "recovery violations" 0
    (c "verify_violations" [ ("check", "recovery") ])

(* ----- qcheck: static rejection matches dynamic flagging ----- *)

(* Clone a speculative register-writing slot with its predicate flipped
   on a condition that resolves after the clone's writeback: the clone
   is disjoint with the original, and both are unresolved at writeback,
   so two shadow versions of one register are demanded at once. The
   bundles touched must be exit-free so the hazard (second writeback
   arriving while the first shadow entry is live) cannot be cut short by
   a region exit. *)
let mutate (code : Pcode.t) =
  let try_region (r : Pcode.region) =
    let setc_bundle = Hashtbl.create 4 in
    Array.iteri
      (fun b bundle ->
        List.iter
          (fun slot ->
            match slot with
            | Pcode.Op { Pcode.op; _ } -> (
                match Instr.cond_def op with
                | Some c -> Hashtbl.replace setc_bundle (Cond.index c) b
                | None -> ())
            | Pcode.Exit _ -> ())
          bundle)
      r.Pcode.code;
    let has_exit b =
      b >= Array.length r.Pcode.code
      || List.exists
           (function Pcode.Exit _ -> true | Pcode.Op _ -> false)
           r.Pcode.code.(b)
    in
    let found = ref None in
    Array.iteri
      (fun b bundle ->
        List.iteri
          (fun s slot ->
            if !found = None then
              match slot with
              | Pcode.Op { Pcode.op; pred; _ } -> (
                  match (Instr.defs op, Instr.cond_def op) with
                  | [ reg ], None
                    when (not (Instr.has_side_effect op))
                         && (not (has_exit b))
                         && (not (has_exit (b + 1)))
                         && not (has_exit (b + 2)) ->
                      let late c =
                        match Hashtbl.find_opt setc_bundle (Cond.index c) with
                        | Some sb -> sb >= b + 1
                        | None -> false
                      in
                      let cs =
                        List.filter late (Cond.Set.elements (Pred.conds pred))
                      in
                      (match cs with
                      | c :: _ ->
                          found := Some (b, s, reg, Pred.flip pred c)
                      | [] -> ())
                  | _ -> ())
              | Pcode.Exit _ -> ())
          bundle)
      r.Pcode.code;
    match !found with
    | None -> None
    | Some (b, s, reg, pred') ->
        let clone =
          Pcode.op pred' (Instr.Mov { dst = reg; src = Operand.imm 3 })
        in
        let insert_after k l =
          List.concat (List.mapi (fun i x -> if i = k then [ x; clone ] else [ x ]) l)
        in
        let code' =
          Array.mapi
            (fun i bundle -> if i = b then insert_after s bundle else bundle)
            r.Pcode.code
        in
        Some ({ r with Pcode.code = code' }, b, reg)
  in
  let rec go before = function
    | [] -> None
    | r :: rest -> (
        match try_region r with
        | Some (r', b, reg) ->
            Some
              ( Pcode.make ~entry:code.Pcode.entry
                  (List.rev_append before (r' :: rest)),
                r.Pcode.name,
                b,
                reg )
        | None -> go (r :: before) rest)
  in
  go [] code.Pcode.regions

(* One ring for every trial, cleared before each run. *)
let ring = Events.create ~capacity:(1 lsl 18) ()

let prop_shadow_overflow =
  QCheck.Test.make
    ~name:"shadow overflow: verifier rejects, machine flags" ~count:40
    Gen_programs.arb_program
    (fun g ->
      let program = g.Gen_programs.program in
      let _, profile =
        Driver.profile_of program ~regs:Gen_programs.regs
          ~mem:(Gen_programs.make_mem g)
      in
      let compiled =
        Driver.compile ~verify:false ~model:Model.region_pred ~machine
          ~profile program
      in
      let code = Option.get compiled.Driver.pcode in
      (* the compiler's own output always verifies *)
      Verify.ok (Verify.run machine code)
      &&
      match mutate code with
      | None -> true (* nothing speculative to overflow *)
      | Some (code', rname, b, reg) ->
          let rejected =
            List.exists
              (fun (v : Verify.violation) -> v.Verify.check = Verify.Capacity)
              (Verify.run machine code').Verify.violations
          in
          (* The overflow is only dynamic when clone AND original both
             issue speculatively in the same visit of the mutated bundle:
             with any guarding condition already resolved, at most one of
             the pair writes a shadow version (the other executes
             non-speculatively or squashes) and there is nothing to flag —
             the static verifier still rejects, conservatively. Op_issue
             events follow their bundle's Issue and name their bundle and
             slot, so count speculative defs of the cloned register per
             bundle visit. *)
          let site_overflows () =
            let region = ref None and site_writes = ref 0 in
            let overflow = ref false in
            Events.iter ring (fun _ kind a slot ->
                match kind with
                | Events.Region_enter ->
                    region :=
                      Some (Pcode.find_region code' (Events.name ring a))
                | Events.Issue -> site_writes := 0
                | Events.Op_issue when slot land 1 = 1 && a = b -> (
                    match !region with
                    | Some r when Label.equal r.Pcode.name rname ->
                        let pi = Pcode.bundle_op r ~bundle:a ~slot:(slot / 2) in
                        if List.exists (Reg.equal reg) (Instr.defs pi.Pcode.op)
                        then begin
                          incr site_writes;
                          if !site_writes >= 2 then overflow := true
                        end
                    | Some _ | None -> ())
                | _ -> ());
            !overflow
          in
          Events.clear ring;
          let flagged =
            match
              Vliw_sim.run ~fuel:Leash.fuel ~events:ring ~model:machine
                ~regs:Gen_programs.regs
                ~mem:(Gen_programs.make_mem g) code'
            with
            | res ->
                Events.dropped ring = 0
                && ((not (site_overflows ()))
                   || res.Vliw_sim.stats.Vliw_sim.shadow_conflicts > 0)
            | exception Vliw_sim.Machine_error _ -> true
          in
          rejected && flagged)

let () =
  Alcotest.run "verify"
    [
      ( "suite",
        [
          Alcotest.test_case "every workload x executable model verifies"
            `Slow test_suite_verifies;
          Alcotest.test_case "driver verifies by default" `Quick
            test_driver_verifies_by_default;
        ] );
      ( "fixtures",
        List.map
          (fun ((check, _) as fx) ->
            Alcotest.test_case (Verify.check_name check) `Quick
              (test_fixture fx))
          fixtures
        @ [
            Alcotest.test_case "four distinct diagnostics" `Quick
              test_fixtures_distinct;
            Alcotest.test_case "report JSON round-trips" `Quick
              test_report_json;
            Alcotest.test_case "report exports metrics" `Quick
              test_report_metrics;
          ] );
      ( "qcheck",
        [ Qc.to_alcotest prop_shadow_overflow ] );
    ]
