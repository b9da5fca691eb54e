(* The fuzzing harness's own tests: the minimized counterexample corpus
   replays clean on the healthy pipeline, the deliberately injected
   scheduler-ordering miscompile is found and shrunk to a tiny program,
   a campaign's recovery counts are its model runs', and the
   value-prediction limit regime dominates the plain oracle. *)

open Psb_proptest
module Limits = Psb_eval.Limits

let corpus_dir = "corpus"

(* ----- corpus replay: every checked-in counterexample must load and
   pass the full differential on today's (healthy) pipeline ----- *)

let test_corpus_replay () =
  let entries = Corpus.load_dir corpus_dir in
  Alcotest.(check bool)
    "corpus is not empty (at least the injected-bug counterexample)" true
    (entries <> []);
  List.iter
    (fun (file, loaded) ->
      match loaded with
      | Error m -> Alcotest.failf "%s failed to load: %s" file m
      | Ok g -> (
          match Diff.check g with
          | Ok () -> ()
          | Error f ->
              Alcotest.failf "%s fails the healthy pipeline: %s" file
                (Diff.pp_failure f)))
    entries

(* ----- the fire drill: an injected scheduler ordering bug must be
   caught by the differential and shrink to a minimal program ----- *)

let find_injected () =
  let cfg =
    {
      Fuzz.default with
      Fuzz.trials = 60;
      seed = 7;
      inject = Some Inject.Sched_order;
      max_counterexamples = 1;
    }
  in
  Fuzz.run cfg

let test_injected_bug_found_and_shrunk () =
  let outcome = find_injected () in
  match outcome.Fuzz.counterexamples with
  | [] ->
      Alcotest.failf "injected sched-order bug survived %d trials undetected"
        outcome.Fuzz.tested
  | cx :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "shrunk to <= 3 diamonds (got %d, %d shrink steps)"
           (Gen.num_diamonds cx.Fuzz.cx_program)
           cx.Fuzz.cx_shrink_steps)
        true
        (Gen.num_diamonds cx.Fuzz.cx_program <= 3);
      (* the minimized program must still witness the bug on its own *)
      (match Diff.check ~inject:Inject.Sched_order cx.Fuzz.cx_program with
      | Error _ -> ()
      | Ok () ->
          Alcotest.fail "minimized counterexample no longer fails under injection");
      (* and be a perfectly healthy program without it *)
      match Diff.check cx.Fuzz.cx_program with
      | Ok () -> ()
      | Error f ->
          Alcotest.failf "minimized counterexample fails without injection: %s"
            (Diff.pp_failure f)

(* the committed corpus entry for the injected bug must itself re-expose
   the bug when the injection is switched back on — that is the file's
   reason to exist *)
let test_corpus_exposes_injection () =
  let entries = Corpus.load_dir corpus_dir in
  let exposes =
    List.exists
      (fun (_, loaded) ->
        match loaded with
        | Error _ -> false
        | Ok g -> (
            match Diff.check ~inject:Inject.Sched_order g with
            | Error _ -> true
            | Ok () -> false))
      entries
  in
  Alcotest.(check bool)
    "some corpus entry re-exposes the injected sched-order bug" true exposes

(* ----- shrinker sanity on a synthetic predicate: minimizing against
   "has at least 2 diamonds" must land on exactly 2 ----- *)

let test_shrink_to_predicate () =
  let shape = { Gen.default_shape with Gen.max_diamonds = 6; max_iters = 12 } in
  let st = Random.State.make [| 0xBEEF; 3 |] in
  let rec find_big n =
    if n = 0 then Alcotest.fail "generator never drew >= 4 diamonds"
    else
      let g = Gen.gen shape st in
      if Gen.num_diamonds g >= 4 then g else find_big (n - 1)
  in
  let g0 = find_big 100 in
  (* greedy descent with the same loop the fuzzer uses, against a pure
     structural predicate instead of the differential *)
  let fails g = Gen.num_diamonds g >= 2 in
  let exception Shrunk of Gen.t in
  let cur = ref g0 and progress = ref true in
  while !progress do
    progress := false;
    match Gen.shrink !cur (fun c -> if fails c then raise (Shrunk c)) with
    | () -> ()
    | exception Shrunk c ->
        cur := c;
        progress := true
  done;
  Alcotest.(check int) "minimal witness of >=2 diamonds has exactly 2" 2
    (Gen.num_diamonds !cur)

(* handmade programs must be shrink-inert (a corpus entry can never be
   "minimized" into an unrelated rebuilt program) *)
let test_handmade_never_shrinks () =
  let g =
    Gen.handmade ~descr:"inert"
      (Psb_isa.Asm.parse_exn "entry main\nmain:\n  out 1\n  halt")
  in
  let candidates = ref 0 in
  Gen.shrink g (fun _ -> incr candidates);
  Alcotest.(check int) "no shrink candidates" 0 !candidates

(* ----- corpus round-trip ----- *)

let test_corpus_roundtrip () =
  let g = Fuzz.gen_trial { Fuzz.default with Fuzz.seed = 11 } 0 in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "psb-corpus-test" in
  let path = Corpus.save ~dir ~seed:11 ~stage:"unit" ~detail:"round-trip" g in
  match Corpus.load path with
  | Error m -> Alcotest.failf "reload failed: %s" m
  | Ok g' ->
      Alcotest.(check string)
        "program text survives"
        (Psb_isa.Asm.print g.Gen.program)
        (Psb_isa.Asm.print g'.Gen.program);
      Alcotest.(check bool) "demand flag survives" g.Gen.demand g'.Gen.demand;
      Alcotest.(check (list (pair int int)))
        "memory image survives" g.Gen.mem_data g'.Gen.mem_data;
      (* and the reloaded program behaves identically *)
      let r1 =
        Psb_isa.Interp.run ~regs:Gen.regs ~mem:(Gen.make_mem g) g.Gen.program
      in
      let r2 =
        Psb_isa.Interp.run ~regs:Gen.regs ~mem:(Gen.make_mem g') g'.Gen.program
      in
      Alcotest.(check bool) "same behaviour" true (Psb_isa.Interp.equivalent r1 r2)

(* ----- recovery counts: a campaign's per-model counts are those of the
   models' own VLIW runs, recounted here from direct runs. Demand paging
   on, so that some runs handle a fault (trials 11 and 40 of seed 1). ----- *)

let test_recoveries_counted () =
  let open Psb_isa in
  let module Driver = Psb_compiler.Driver in
  let module Model = Psb_compiler.Model in
  let module Vliw_sim = Psb_machine.Vliw_sim in
  let cfg =
    {
      Fuzz.default with
      Fuzz.trials = 60;
      seed = 1;
      shape = { Gen.default_shape with Gen.demand = `On };
    }
  in
  let o = Fuzz.run cfg in
  Alcotest.(check int) "clean" 0 (List.length o.Fuzz.counterexamples);
  let models = List.filter (fun (m : Model.t) -> m.Model.executable) Model.all in
  let recount (model : Model.t) =
    List.fold_left
      (fun (halted, fatal, handled) i ->
        let g = Fuzz.gen_trial cfg i in
        let scalar =
          Interp.run ~fuel:500_000 ~regs:Gen.regs ~mem:(Gen.make_mem g)
            g.Gen.program
        in
        if scalar.Interp.outcome = Interp.Out_of_fuel then (halted, fatal, handled)
        else
          let _, profile =
            Driver.profile_of g.Gen.program ~regs:Gen.regs ~mem:(Gen.make_mem g)
          in
          let c =
            Driver.compile ~verify:false ~model
              ~machine:Psb_machine.Machine_model.base ~profile g.Gen.program
          in
          let v = Leash.run_vliw c ~regs:Gen.regs ~mem:(Gen.make_mem g) in
          let recovered = v.Vliw_sim.stats.Vliw_sim.recoveries > 0 in
          let fatal_scalar =
            match scalar.Interp.outcome with Interp.Fatal _ -> true | _ -> false
          in
          ( halted + Bool.to_int (recovered && scalar.Interp.outcome = Interp.Halted),
            fatal + Bool.to_int (recovered && fatal_scalar),
            handled + v.Vliw_sim.faults_handled ))
      (0, 0, 0)
      (List.init cfg.Fuzz.trials Fun.id)
  in
  Alcotest.(check (list (pair string (triple int int int))))
    "per model: halted, fatal, faults handled"
    (List.map (fun (m : Model.t) -> (m.Model.name, recount m)) models)
    (List.map
       (fun (r : Diff.recoveries) ->
         (r.Diff.model, (r.Diff.halted, r.Diff.fatal, r.Diff.faults_handled)))
       o.Fuzz.recoveries);
  Alcotest.(check bool)
    "the campaign reaches recovery and handles faults" true
    (List.for_all
       (fun (r : Diff.recoveries) -> r.Diff.fatal > 0 && r.Diff.faults_handled > 0)
       o.Fuzz.recoveries)

(* ----- value-prediction limit regime over the generator fleet ----- *)

let test_limits_fleet_value_dominates () =
  let rows = Fuzz.limits_fleet ~n:6 ~seed:5 () in
  Alcotest.(check int) "fleet size" 6 (List.length rows);
  List.iter
    (fun (r : Limits.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: value %.3f >= oracle %.3f" r.Limits.name
           r.Limits.value_ipc r.Limits.oracle_ipc)
        true
        (r.Limits.value_ipc >= r.Limits.oracle_ipc -. 1e-9))
    rows

let () =
  Alcotest.run "fuzz"
    [
      ( "corpus",
        [
          Alcotest.test_case "replay corpus on healthy pipeline" `Quick
            test_corpus_replay;
          Alcotest.test_case "corpus re-exposes injected bug" `Quick
            test_corpus_exposes_injection;
          Alcotest.test_case "save/load round-trip" `Quick test_corpus_roundtrip;
        ] );
      ( "inject",
        [
          Alcotest.test_case "injected sched-order bug found and shrunk" `Quick
            test_injected_bug_found_and_shrunk;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "greedy descent reaches minimal witness" `Quick
            test_shrink_to_predicate;
          Alcotest.test_case "handmade programs are shrink-inert" `Quick
            test_handmade_never_shrinks;
        ] );
      (* Alcotest pads every row to the longest group name and cuts test
         names to fit 80 columns: a group name past six characters would
         cut the longest names above and below. *)
      ( "counts",
        [
          Alcotest.test_case "recoveries recounted from model runs" `Quick
            test_recoveries_counted;
        ] );
      ( "limits",
        [
          Alcotest.test_case "value oracle dominates plain oracle (fleet)"
            `Quick test_limits_fleet_value_dominates;
        ] );
    ]
