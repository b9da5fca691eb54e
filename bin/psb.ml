(* psb — command-line front end for the predicated-state-buffering stack.

   Subcommands:
     list                   available workloads and models
     run WORKLOAD           scalar reference run (cycles, output, profile)
     compile WORKLOAD       compile and dump units/schedules/predicated code
     sim WORKLOAD           compile and execute on the VLIW machine
     rob [WORKLOAD]         run on the out-of-order ROB backend, check vs scalar
     trace WORKLOAD         emit a run as Chrome trace-event JSON
     timeline WORKLOAD      human-readable machine event log
     profile WORKLOAD       cycle-accounting breakdown, hot blocks, metrics
     speculate WORKLOAD     per-region speculation scorecards
     verify [WORKLOAD]      static speculation-safety check of compiled code
     speedup WORKLOAD       all models side by side
     exec FILE.psb          assemble and run a .psb file
     pexec FILE.ppsb        run hand-written predicated code on the machine
     fuzz                   whole-pipeline differential fuzzing
     experiments [NAME..]   regenerate the paper's tables and figures *)

open Cmdliner
open Psb_isa
open Psb_compiler
open Psb_workloads
module Machine_model = Psb_machine.Machine_model
module Vliw_sim = Psb_machine.Vliw_sim
module Vliw_trace = Psb_machine.Vliw_trace
module Pcode = Psb_machine.Pcode

let wconv =
  Arg.conv ~docv:"WORKLOAD"
    ( (fun s ->
        match Suite.find s with
        | w -> Ok w
        | exception Not_found ->
            let names =
              List.map
                (fun (w : Dsl.t) -> w.Dsl.name)
                (Suite.all @ Suite.extras)
            in
            Error
              (`Msg
                (Printf.sprintf
                   "unknown workload %s; available: %s (see `psb list`)" s
                   (String.concat ", " names)))),
      fun ppf (w : Dsl.t) -> Format.pp_print_string ppf w.Dsl.name )

let workload_arg =
  Arg.(required & pos 0 (some wconv) None & info [] ~docv:"WORKLOAD")

let mconv =
  Arg.conv ~docv:"MODEL"
    ( (fun s ->
        match Model.find s with
        | Ok m -> Ok m
        | Error msg -> Error (`Msg (msg ^ " — see `psb list`"))),
      Model.pp )

let model_arg =
  Arg.(
    value
    & opt mconv Model.region_pred
    & info [ "m"; "model" ] ~docv:"MODEL" ~doc:"Execution model (see `psb list`).")

let issue_arg =
  Arg.(
    value & opt int 4
    & info [ "issue" ] ~docv:"N" ~doc:"Issue width (full-issue machine if not 4).")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:"Run copy propagation, DCE and jump threading first.")

let preoptimize flag program =
  if flag then Transform.jump_thread (Transform.optimize program) else program

let machine_of_issue issue =
  if issue = 4 then Machine_model.base
  else Machine_model.full_issue ~width:issue ~max_spec_conds:4

(* Estimate-only models emit no predicated code: the commands that run
   the machine refuse them, naming the executable ones. *)
let require_executable (model : Model.t) =
  if not model.Model.executable then begin
    Format.eprintf "model %s is not executable; pick one of:@." model.Model.name;
    List.iter
      (fun (m : Model.t) ->
        if m.Model.executable then Format.eprintf "  %s@." m.Model.name)
      Model.all;
    exit 1
  end

(* The cycle bound of a VLIW run made beside the scalar run [scalar], so
   that code which loops stops at the harness's leash instead of the
   simulator's 60M-cycle default. *)
let leash (scalar : Interp.result) =
  Psb_eval.Harness.leash ~scalar_cycles:scalar.Interp.cycles

(* The event ring a traced run records into: no suite run overflows it. *)
let ring_capacity = 1 lsl 20

(* ----- list ----- *)

let list_cmd =
  let run () =
    Format.printf "workloads:@.";
    List.iter
      (fun (w : Dsl.t) ->
        Format.printf "  %-10s %s@." w.Dsl.name w.Dsl.description)
      Suite.all;
    Format.printf "@.models:@.";
    List.iter
      (fun (m : Model.t) ->
        Format.printf "  %-14s scope=%s%s%s@." m.Model.name
          (match m.Model.scope with Model.Trace -> "trace" | Model.Region -> "region")
          (if m.Model.branch_elim then ", predicated" else ", branches kept")
          (if m.Model.executable then ", executable" else ", estimated"))
      Model.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and execution models")
    Term.(const run $ const ())

(* ----- run ----- *)

let run_cmd =
  let run (w : Dsl.t) =
    let res = Interp.run ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()) w.Dsl.program in
    Format.printf "workload:   %s@." w.Dsl.name;
    Format.printf "outcome:    %a@." Interp.pp_outcome res.Interp.outcome;
    Format.printf "cycles:     %d@." res.Interp.cycles;
    Format.printf "instrs:     %d@." res.Interp.dyn_instrs;
    Format.printf "output:     %s@."
      (String.concat " " (List.map string_of_int res.Interp.output));
    let t = Trace.of_result w.Dsl.program res in
    Format.printf "branches:   %d (%.1f%% predicted by profile)@."
      (Trace.dynamic_branches t)
      (100. *. Trace.prediction_accuracy t)
  in
  Cmd.v (Cmd.info "run" ~doc:"Scalar reference run of a workload")
    Term.(const run $ workload_arg)

(* ----- compile ----- *)

let compile_cmd =
  let run (w : Dsl.t) model issue dump_code =
    let machine = machine_of_issue issue in
    let _, profile =
      Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
    in
    let compiled = Driver.compile ~model ~machine ~profile w.Dsl.program in
    Format.printf "model %s on %a@." model.Model.name Machine_model.pp machine;
    Format.printf "%d units, %d static slots@.@."
      (Label.Map.cardinal compiled.Driver.units)
      (Driver.code_size compiled);
    Label.Map.iter
      (fun _ (s : Sched.t) -> Format.printf "%a@." Sched.pp s)
      compiled.Driver.schedules;
    match (dump_code, compiled.Driver.pcode) with
    | true, Some code -> Format.printf "@.%a@." Pcode.pp code
    | true, None -> Format.printf "@.(model is not executable: no VLIW code)@."
    | false, _ -> ()
  in
  let dump =
    Arg.(value & flag & info [ "code" ] ~doc:"Also dump the predicated VLIW code.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a workload and dump units and schedules")
    Term.(const run $ workload_arg $ model_arg $ issue_arg $ dump)

(* ----- sim ----- *)

let sim_cmd =
  let run (w : Dsl.t) model issue opt =
    require_executable model;
    let machine = machine_of_issue issue in
    let program = preoptimize opt w.Dsl.program in
    let scalar, profile =
      Driver.profile_of program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
    in
    let compiled = Driver.compile ~model ~machine ~profile program in
    let res =
      Driver.run_vliw ~fuel:(leash scalar) compiled ~regs:w.Dsl.regs
        ~mem:(w.Dsl.make_mem ())
    in
    let s = res.Vliw_sim.stats in
    Format.printf "workload:      %s  (model %s)@." w.Dsl.name model.Model.name;
    Format.printf "outcome:       %a@." Interp.pp_outcome res.Vliw_sim.outcome;
    Format.printf "cycles:        %d (scalar %d, speedup %.2fx)@."
      res.Vliw_sim.cycles scalar.Interp.cycles
      (float_of_int scalar.Interp.cycles /. float_of_int res.Vliw_sim.cycles);
    Format.printf "bundles:       %d (%.2f ops/cycle)@." s.Vliw_sim.dyn_bundles
      (float_of_int s.Vliw_sim.dyn_ops /. float_of_int (max 1 res.Vliw_sim.cycles));
    Format.printf "speculative:   %d issued, %d commits, %d squashes@."
      s.Vliw_sim.spec_ops s.Vliw_sim.commits s.Vliw_sim.squashes;
    Format.printf "exceptions:    %d handled, %d recoveries (%d cycles)@."
      res.Vliw_sim.faults_handled s.Vliw_sim.recoveries s.Vliw_sim.recovery_cycles;
    Format.printf "shadow:        %d conflicts, %d stall cycles@."
      s.Vliw_sim.shadow_conflicts s.Vliw_sim.conflict_stall_cycles;
    Format.printf "store buffer:  max occupancy %d@." s.Vliw_sim.sb_max_occupancy;
    Format.printf "output:        %s@."
      (String.concat " " (List.map string_of_int res.Vliw_sim.output));
    if res.Vliw_sim.output <> scalar.Interp.output then begin
      Format.printf "ERROR: output differs from the scalar reference!@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Execute a workload on the predicating VLIW machine")
    Term.(const run $ workload_arg $ model_arg $ issue_arg $ optimize_arg)

(* ----- rob: the rival out-of-order backend ----- *)

let rob_cmd =
  let module Rob_sim = Psb_machine.Rob_sim in
  let run w_opt issue json =
    let machine = machine_of_issue issue in
    let check (w : Dsl.t) =
      let scalar_mem = w.Dsl.make_mem () in
      let scalar =
        Interp.run ~record_trace:false ~regs:w.Dsl.regs ~mem:scalar_mem
          w.Dsl.program
      in
      let rob_mem = w.Dsl.make_mem () in
      let res =
        Rob_sim.run ~model:machine ~regs:w.Dsl.regs ~mem:rob_mem w.Dsl.program
      in
      let ok =
        scalar.Interp.outcome = res.Rob_sim.outcome
        && scalar.Interp.output = res.Rob_sim.output
        && Reg.Map.equal Int.equal scalar.Interp.regs res.Rob_sim.regs
        && scalar.Interp.faults_handled = res.Rob_sim.faults_handled
        && Memory.equal scalar_mem rob_mem
        && Rob_sim.breakdown_total res.Rob_sim.breakdown = res.cycles
      in
      (w, scalar, res, ok)
    in
    let ws = match w_opt with Some w -> [ w ] | None -> Suite.all in
    let rows = List.map check ws in
    if json then begin
      let open Psb_obs.Json in
      let doc =
        List
          (List.map
             (fun ((w : Dsl.t), (scalar : Interp.result), (r : Rob_sim.result), ok) ->
               obj
                 [
                   ("workload", String w.Dsl.name);
                   ("scalar_cycles", Int scalar.Interp.cycles);
                   ("rob_cycles", Int r.cycles);
                   ( "speedup",
                     Float
                       (float_of_int scalar.Interp.cycles
                       /. float_of_int (max 1 r.cycles)) );
                   ("committed", Int r.Rob_sim.stats.Rob_sim.committed);
                   ("squashed", Int r.Rob_sim.stats.Rob_sim.squashed);
                   ("mispredicts", Int r.Rob_sim.stats.Rob_sim.mispredicts);
                   ( "cycle_breakdown",
                     Obj
                       (List.map
                          (fun (k, v) -> (k, Int v))
                          (Rob_sim.breakdown_fields r.Rob_sim.breakdown)) );
                   ("architecturally_identical", Bool ok);
                 ])
             rows)
      in
      print_endline (to_string doc)
    end
    else begin
      Format.printf "%-10s %10s %10s %8s %6s %11s %8s  %s@." "workload"
        "scalar" "rob" "speedup" "ipc" "mispredicts" "squashed" "identical";
      List.iter
        (fun ((w : Dsl.t), (scalar : Interp.result), (r : Rob_sim.result), ok) ->
          Format.printf "%-10s %10d %10d %7.2fx %6.2f %11d %8d  %s@."
            w.Dsl.name scalar.Interp.cycles r.cycles
            (float_of_int scalar.Interp.cycles
            /. float_of_int (max 1 r.cycles))
            (float_of_int r.Rob_sim.dyn_instrs
            /. float_of_int (max 1 r.cycles))
            r.Rob_sim.stats.Rob_sim.mispredicts
            r.Rob_sim.stats.Rob_sim.squashed
            (if ok then "yes" else "NO"))
        rows
    end;
    if List.exists (fun (_, _, _, ok) -> not ok) rows then begin
      Format.eprintf
        "ERROR: ROB backend diverged from the scalar reference@.";
      exit 1
    end
  in
  let workload_opt =
    Arg.(value & pos 0 (some wconv) None & info [] ~docv:"WORKLOAD")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one machine-readable JSON document instead of text.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs $(i,WORKLOAD) (default: the whole suite) on the rival \
         out-of-order reorder-buffer backend and checks its architectural \
         results — outcome, output, final registers, final memory, \
         handled faults — are byte-identical to the scalar reference \
         interpreter. Exits non-zero on any divergence, so it doubles as \
         a CI lane.";
    ]
  in
  Cmd.v
    (Cmd.info "rob" ~man
       ~doc:
         "Execute workloads on the out-of-order ROB backend and check them \
          against the scalar reference")
    Term.(const run $ workload_opt $ issue_arg $ json)

(* ----- timeline: human-readable machine event log ----- *)

let timeline_cmd =
  let run (w : Dsl.t) model limit =
    require_executable model;
    let machine = Machine_model.base in
    let scalar, profile =
      Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
    in
    let compiled = Driver.compile ~model ~machine ~profile w.Dsl.program in
    let events = Psb_obs.Events.create ~capacity:ring_capacity () in
    let res =
      Driver.run_vliw ~fuel:(leash scalar) compiled ~events ~regs:w.Dsl.regs
        ~mem:(w.Dsl.make_mem ())
    in
    if Psb_obs.Events.dropped events > 0 then
      Format.printf "... (event ring overflowed: the oldest %d events are lost)@."
        (Psb_obs.Events.dropped events);
    let shown = ref 0 in
    (try
       Vliw_trace.iter_lines ~model:machine (Option.get compiled.Driver.pcode)
         events (fun cycle line ->
           if !shown >= limit then raise_notrace Exit;
           Format.printf "cycle %5d  %s@." cycle line;
           incr shown;
           if !shown = limit then Format.printf "... (truncated; use -n)@.")
     with Exit -> ());
    Format.printf "%a in %d cycles@." Interp.pp_outcome res.Vliw_sim.outcome
      res.Vliw_sim.cycles
  in
  let limit =
    Arg.(value & opt int 60 & info [ "n" ] ~docv:"N" ~doc:"Events to show.")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Show the machine's commit/squash/recovery timeline for a workload")
    Term.(const run $ workload_arg $ model_arg $ limit)

(* ----- trace: Chrome trace-event JSON ----- *)

let trace_cmd =
  let run (w : Dsl.t) model issue opt out limit =
    require_executable model;
    let machine = machine_of_issue issue in
    let program = preoptimize opt w.Dsl.program in
    let scalar, profile =
      Driver.profile_of program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
    in
    let compiled = Driver.compile ~model ~machine ~profile program in
    let events = Psb_obs.Events.create ~capacity:ring_capacity () in
    let res =
      Driver.run_vliw ~fuel:(leash scalar) compiled ~events ~regs:w.Dsl.regs
        ~mem:(w.Dsl.make_mem ())
    in
    let sink =
      Vliw_trace.of_events ?limit ~model:machine
        (Option.get compiled.Driver.pcode)
        events
    in
    let json =
      Psb_obs.Json.to_string ~minify:true (Vliw_trace.to_json ~result:res sink)
    in
    (match out with
    | None -> print_endline json
    | Some path ->
        let oc =
          try open_out path
          with Sys_error m ->
            Format.eprintf "cannot write trace: %s@." m;
            exit 1
        in
        output_string oc json;
        output_char oc '\n';
        close_out oc;
        Format.eprintf "wrote %s (%a in %d cycles)@." path Interp.pp_outcome
          res.Vliw_sim.outcome res.Vliw_sim.cycles);
    if Psb_obs.Events.dropped events > 0 then
      Format.eprintf "warning: trace truncated: the event ring overflowed@."
    else if Vliw_trace.truncated sink then
      Format.eprintf "warning: trace truncated at the event limit (--limit)@."
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the trace to $(docv) instead of standard output.")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N"
          ~doc:"Cap the number of recorded trace events (default 2000000).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles $(i,WORKLOAD), executes it on the VLIW machine, and \
         emits the run as Chrome trace-event JSON. Load the file in \
         Perfetto (https://ui.perfetto.dev) or chrome://tracing; one \
         simulated cycle renders as one microsecond.";
      `P
        "Tracks: $(b,issue) shows one span per issued bundle; \
         $(b,alu)/$(b,br)/$(b,ld)/$(b,st) lanes show each executed \
         operation for the length of its latency (speculative ops are \
         suffixed $(b,.s)); $(b,recovery) spans each exception \
         re-execution episode; $(b,ccr), $(b,shadow-regfile) and \
         $(b,store-buffer) carry instant markers for condition writes, \
         speculative commits/squashes and store traffic, plus a \
         store-buffer occupancy counter series.";
      `P
        "The final outcome, cycle count and cycle-accounting breakdown \
         travel in the document's $(b,metadata) object.";
    ]
  in
  Cmd.v
    (Cmd.info "trace" ~man
       ~doc:"Emit a run as Chrome trace-event JSON (Perfetto-loadable)")
    Term.(
      const run $ workload_arg $ model_arg $ issue_arg $ optimize_arg $ out
      $ limit)

(* ----- speculate: per-region speculation scorecards ----- *)

let speculate_cmd =
  let run (w : Dsl.t) model issue opt json capacity rob =
    let machine = machine_of_issue issue in
    let program = preoptimize opt w.Dsl.program in
    if rob then begin
      let events = Psb_obs.Events.create ~capacity () in
      let res =
        Psb_machine.Rob_sim.run ~events ~model:machine ~regs:w.Dsl.regs
          ~mem:(w.Dsl.make_mem ()) program
      in
      let prof =
        Psb_obs.Spec_profile.of_events ~total_cycles:res.cycles
          events
      in
      if json then begin
        let open Psb_obs.Json in
        let doc =
          obj
            [
              ("workload", String w.Dsl.name);
              ("model", String "rob");
              ("cycles", Int res.cycles);
              ( "cycle_breakdown",
                Obj
                  (List.map
                     (fun (k, v) -> (k, Int v))
                     (Psb_machine.Rob_sim.breakdown_fields
                        res.Psb_machine.Rob_sim.breakdown)) );
              ("speculation", Psb_obs.Spec_profile.to_json prof);
            ]
        in
        print_endline (to_string doc)
      end
      else begin
        Format.printf "workload: %s  (out-of-order ROB backend), %a in %d cycles@.@."
          w.Dsl.name Interp.pp_outcome res.Psb_machine.Rob_sim.outcome
          res.cycles;
        Format.printf "%a@." Psb_obs.Spec_profile.pp prof
      end;
      exit 0
    end;
    require_executable model;
    let scalar, profile =
      Driver.profile_of program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
    in
    let compiled = Driver.compile ~model ~machine ~profile program in
    let events = Psb_obs.Events.create ~capacity () in
    let res =
      Driver.run_vliw ~fuel:(leash scalar) compiled ~events ~regs:w.Dsl.regs
        ~mem:(w.Dsl.make_mem ())
    in
    let prof =
      Psb_obs.Spec_profile.of_events ~total_cycles:res.Vliw_sim.cycles events
    in
    if json then begin
      let open Psb_obs.Json in
      let doc =
        obj
          [
            ("workload", String w.Dsl.name);
            ("model", String model.Model.name);
            ("cycles", Int res.Vliw_sim.cycles);
            ( "cycle_breakdown",
              Obj
                (List.map
                   (fun (k, v) -> (k, Int v))
                   (Vliw_sim.breakdown_fields res.Vliw_sim.breakdown)) );
            ("speculation", Psb_obs.Spec_profile.to_json prof);
          ]
      in
      print_endline (to_string doc)
    end
    else begin
      Format.printf "workload: %s  (model %s), %a in %d cycles@.@." w.Dsl.name
        model.Model.name Interp.pp_outcome res.Vliw_sim.outcome
        res.Vliw_sim.cycles;
      Format.printf "%a@." Psb_obs.Spec_profile.pp prof
    end
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one machine-readable JSON document instead of text.")
  in
  let capacity =
    Arg.(
      value
      & opt int ring_capacity
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Event ring capacity (default 1048576). The scorecards only \
             reconcile with the machine's cycle accounting when no events \
             are dropped.")
  in
  let rob =
    Arg.(
      value & flag
      & info [ "rob" ]
          ~doc:
            "Profile the rival out-of-order reorder-buffer backend instead \
             of the predicating VLIW machine (the scorecards then count \
             reorder-buffer commits and squashes).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles and runs $(i,WORKLOAD) with the structured speculation \
         event log attached, then folds the stream into per-region \
         scorecards: residency cycles, useful vs wasted issue cycles, \
         shadow-register and store-buffer commit/squash outcomes, \
         forwarding hits, D-cache flushes, deferred/raised faults, and \
         buffered-value lifetime / store-buffer dwell quantiles.";
      `P
        "The final line reports reconciliation: per-region residencies \
         telescope to exactly the machine's cycle count, useful/wasted \
         sums match the cycle-accounting breakdown, and no events were \
         dropped. See docs/OBSERVABILITY.md for the schema.";
    ]
  in
  Cmd.v
    (Cmd.info "speculate" ~man
       ~doc:"Per-region speculation scorecards (squash rates, lifetimes)")
    Term.(
      const run $ workload_arg $ model_arg $ issue_arg $ optimize_arg $ json
      $ capacity $ rob)

(* ----- profile: where did the cycles go ----- *)

let profile_cmd =
  let run (w : Dsl.t) model issue opt json rob =
    let machine = machine_of_issue issue in
    let program = preoptimize opt w.Dsl.program in
    let metrics = Psb_obs.Metrics.create () in
    let scalar =
      Psb_machine.Scalar_sim.run ~metrics ~record_trace:true ~regs:w.Dsl.regs
        ~mem:(w.Dsl.make_mem ()) program
    in
    if rob then begin
      let module Rob_sim = Psb_machine.Rob_sim in
      let res =
        Rob_sim.run ~metrics ~model:machine ~regs:w.Dsl.regs
          ~mem:(w.Dsl.make_mem ()) program
      in
      let trace = Trace.of_result program scalar in
      let hot = Trace.hot_blocks ~limit:10 trace in
      if json then begin
        let open Psb_obs.Json in
        let doc =
          obj
            [
              ("workload", String w.Dsl.name);
              ("model", String "rob");
              ("scalar_cycles", Int scalar.Interp.cycles);
              ("rob_cycles", Int res.cycles);
              ( "cycle_breakdown",
                Obj
                  (List.map
                     (fun (k, v) -> (k, Int v))
                     (Rob_sim.breakdown_fields res.Rob_sim.breakdown)) );
              ( "hot_blocks",
                List
                  (List.map
                     (fun (l, n) ->
                       Obj
                         [ ("label", String (Label.name l)); ("count", Int n) ])
                     hot) );
              ("metrics", Psb_obs.Metrics.to_json metrics);
            ]
        in
        print_endline (to_string doc)
      end
      else begin
        let s = res.Rob_sim.stats in
        Format.printf "workload:      %s  (out-of-order ROB backend)@."
          w.Dsl.name;
        Format.printf "scalar:        %d cycles@." scalar.Interp.cycles;
        Format.printf "rob:           %d cycles (%.2fx)@.@." res.cycles
          (float_of_int scalar.Interp.cycles
          /. float_of_int (max 1 res.cycles));
        Format.printf "%a@.@." Rob_sim.pp_breakdown res.Rob_sim.breakdown;
        Format.printf
          "frontend:      %d fetched, %d committed, %d squashed@."
          s.Rob_sim.fetched s.Rob_sim.committed s.Rob_sim.squashed;
        Format.printf "branches:      %d, %d mispredicted@." s.Rob_sim.branches
          s.Rob_sim.mispredicts;
        Format.printf
          "memory:        %d loads forwarded, %d fault restarts@."
          s.Rob_sim.loads_forwarded s.Rob_sim.fault_restarts;
        Format.printf "buffer:        max occupancy %d, %d full stalls@."
          s.Rob_sim.rob_max_occupancy s.Rob_sim.rob_full_stalls;
        Format.printf "@.metrics:@.%a@." Psb_obs.Metrics.pp metrics
      end;
      exit 0
    end;
    let trace = Trace.of_result program scalar in
    let profile =
      Psb_cfg.Branch_predict.of_trace (Psb_cfg.Cfg.of_program program) trace
    in
    let cache = Compile_cache.create () in
    let compiled =
      Driver.compile ~metrics ~cache ~model ~machine ~profile program
    in
    Compile_cache.observe_metrics cache metrics;
    let res =
      if compiled.Driver.pcode = None then None
      else
        Some
          (Driver.run_vliw ~fuel:(leash scalar) compiled ~metrics
             ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()))
    in
    let hot = Trace.hot_blocks ~limit:10 trace in
    if json then begin
      let open Psb_obs.Json in
      let doc =
        obj
          [
            ("workload", String w.Dsl.name);
            ("model", String model.Model.name);
            ("scalar_cycles", Int scalar.Interp.cycles);
            ( "vliw_cycles",
              match res with
              | Some r -> Int r.Vliw_sim.cycles
              | None -> Null );
            ( "cycle_breakdown",
              match res with
              | Some r ->
                  Obj
                    (List.map
                       (fun (k, v) -> (k, Int v))
                       (Vliw_sim.breakdown_fields r.Vliw_sim.breakdown))
              | None -> Null );
            ( "hot_blocks",
              List
                (List.map
                   (fun (l, n) ->
                     Obj
                       [
                         ("label", String (Label.name l)); ("count", Int n);
                       ])
                   hot) );
            ("metrics", Psb_obs.Metrics.to_json metrics);
          ]
      in
      print_endline (to_string doc)
    end
    else begin
      Format.printf "workload:      %s  (model %s)@." w.Dsl.name
        model.Model.name;
      Format.printf "scalar:        %d cycles@." scalar.Interp.cycles;
      (match res with
      | Some r ->
          Format.printf "vliw:          %d cycles (%.2fx)@.@." r.Vliw_sim.cycles
            (float_of_int scalar.Interp.cycles
            /. float_of_int r.Vliw_sim.cycles);
          Format.printf "%a@." Vliw_sim.pp_breakdown r.Vliw_sim.breakdown
      | None ->
          Format.printf "vliw:          (model %s is estimate-only)@."
            model.Model.name);
      Format.printf "@.hot blocks (scalar profile):@.";
      List.iter
        (fun (l, n) -> Format.printf "  %-12s %8d executions@." (Label.name l) n)
        hot;
      (* Quantile summary of the machine's per-cycle distributions. The
         find-or-create leaves buckets unspecified so it never conflicts
         with the layout the simulator created them with. *)
      let quantiles name title =
        let h = Psb_obs.Metrics.histogram metrics name in
        if Psb_obs.Metrics.histogram_count h > 0 then
          let q p =
            Option.value (Psb_obs.Metrics.histogram_quantile h p)
              ~default:Float.nan
          in
          Format.printf "  %-22s p50=%g p90=%g p99=%g@." title (q 0.5) (q 0.9)
            (q 0.99)
      in
      Format.printf "@.distributions:@.";
      quantiles "vliw_sb_occupancy" "store-buffer occupancy";
      quantiles "vliw_bundle_ops" "executed ops/bundle";
      quantiles "compile_seconds" "compile time (s)";
      Format.printf "@.metrics:@.%a@." Psb_obs.Metrics.pp metrics
    end
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one machine-readable JSON document instead of text.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles and runs $(i,WORKLOAD) with the metrics registry \
         attached to every stage, then reports: the cycle-accounting \
         breakdown (every simulated cycle charged to exactly one of \
         useful issue, squashed issue, shadow-conflict stall, \
         store-buffer stall, recovery re-execution or region-transition \
         penalty — the categories sum to the total cycle count); the \
         hottest basic blocks of the scalar profile; and the collected \
         metrics — compiler pass timings, schedule densities, dynamic \
         operation classes and store-buffer occupancy histograms.";
      `P
        "With $(b,--rob) the workload instead runs on the rival \
         out-of-order reorder-buffer backend, with its own accounting \
         categories (fault restarts, commit, redirect flushes, memory \
         waits, frontend refills, execute waits).";
    ]
  in
  let rob =
    Arg.(
      value & flag
      & info [ "rob" ]
          ~doc:
            "Profile the out-of-order reorder-buffer backend instead of \
             compiling for the VLIW machine.")
  in
  Cmd.v
    (Cmd.info "profile" ~man
       ~doc:"Cycle-accounting breakdown, hot blocks and metrics for a workload")
    Term.(
      const run $ workload_arg $ model_arg $ issue_arg $ optimize_arg $ json
      $ rob)

(* ----- speedup ----- *)

let speedup_cmd =
  let run (w : Dsl.t) issue =
    let machine = machine_of_issue issue in
    let scalar, profile =
      Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
    in
    Format.printf "%s: scalar %d cycles@." w.Dsl.name scalar.Interp.cycles;
    List.iter
      (fun (m : Model.t) ->
        let compiled = Driver.compile ~model:m ~machine ~profile w.Dsl.program in
        let est =
          Driver.estimate_cycles compiled w.Dsl.program
            ~block_trace:scalar.Interp.block_trace
        in
        let measured =
          if m.Model.executable then
            let r =
              Driver.run_vliw ~fuel:(leash scalar) compiled ~regs:w.Dsl.regs
                ~mem:(w.Dsl.make_mem ())
            in
            Format.asprintf " (measured %d, %.2fx)" r.Vliw_sim.cycles
              (float_of_int scalar.Interp.cycles /. float_of_int r.Vliw_sim.cycles)
          else ""
        in
        Format.printf "  %-14s %8d cycles  %.2fx%s@." m.Model.name est
          (float_of_int scalar.Interp.cycles /. float_of_int est)
          measured)
      Model.all
  in
  Cmd.v
    (Cmd.info "speedup" ~doc:"Compare all execution models on one workload")
    Term.(const run $ workload_arg $ issue_arg)

(* ----- exec: run an assembly file ----- *)

let exec_cmd =
  let run path model =
    let text =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Asm.parse text with
    | Error m ->
        Format.printf "parse error: %s@." m;
        exit 1
    | Ok program ->
        let mem () = Memory.create ~size:4096 in
        let scalar, profile = Driver.profile_of program ~regs:[] ~mem:(mem ()) in
        Format.printf "scalar: %a, %d cycles, output %s@." Interp.pp_outcome
          scalar.Interp.outcome scalar.Interp.cycles
          (String.concat " " (List.map string_of_int scalar.Interp.output));
        if model.Model.executable then begin
          let compiled =
            Driver.compile ~model ~machine:Machine_model.base ~profile program
          in
          let vliw =
            Driver.run_vliw ~fuel:(leash scalar) compiled ~regs:[] ~mem:(mem ())
          in
          Format.printf "%s: %a, %d cycles (%.2fx), output %s@."
            model.Model.name Interp.pp_outcome vliw.Vliw_sim.outcome
            vliw.Vliw_sim.cycles
            (float_of_int scalar.Interp.cycles /. float_of_int vliw.Vliw_sim.cycles)
            (String.concat " " (List.map string_of_int vliw.Vliw_sim.output))
        end
        else Format.printf "(model %s is estimate-only)@." model.Model.name
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.psb")
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Assemble and run a .psb file (scalar + predicated)")
    Term.(const run $ path $ model_arg)

(* ----- pexec: run a predicated-code file on the machine ----- *)

let pexec_cmd =
  let run path =
    let text =
      let ic = open_in path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Psb_machine.Pcode_text.parse text with
    | Error m ->
        Format.printf "parse error: %s@." m;
        exit 1
    | Ok code ->
        let model = Machine_model.base in
        (match Pcode.check_resources model code with
        | Ok () -> ()
        | Error m ->
            Format.printf "resource error: %s@." m;
            exit 1);
        let mem = Memory.create ~size:4096 in
        (* modest default inputs so Figure-4-style files have data *)
        Memory.poke mem 40 5;
        Memory.poke mem 6 100;
        Memory.poke mem 64 55;
        let regs =
          [
            (Psb_isa.Reg.make 2, 40); (Psb_isa.Reg.make 4, 10);
            (Psb_isa.Reg.make 5, 7); (Psb_isa.Reg.make 7, 99);
            (Psb_isa.Reg.make 8, 64);
          ]
        in
        let events = Psb_obs.Events.create ~capacity:ring_capacity () in
        let res =
          match
            Vliw_sim.run ~events ~regs ~mem
              (Psb_machine.Lowered.compile ~machine:model code)
          with
          | res -> res
          | exception Vliw_sim.Machine_error m ->
              Format.printf "machine error: %s@." m;
              exit 1
        in
        Format.printf "outcome: %a in %d cycles, output %s@." Interp.pp_outcome
          res.Vliw_sim.outcome res.Vliw_sim.cycles
          (String.concat " " (List.map string_of_int res.Vliw_sim.output));
        Format.printf "timeline:@.";
        Vliw_trace.iter_lines ~model code events (fun c line ->
            Format.printf "  cycle %2d  %s@." c line)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ppsb") in
  Cmd.v
    (Cmd.info "pexec"
       ~doc:"Run a predicated-code (.ppsb) file on the machine, with its \
             commit/squash timeline")
    Term.(const run $ path)

(* ----- verify: static speculation-safety check ----- *)

let verify_cmd =
  let run wopt mopt issue opt json =
    let machine = machine_of_issue issue in
    let workloads =
      match wopt with Some w -> [ w ] | None -> Suite.all @ Suite.extras
    in
    let models =
      match mopt with
      | Some (m : Model.t) ->
          if not m.Model.executable then begin
            Format.eprintf
              "psb verify: model %s is estimate-only (no predicated code to \
               verify)@."
              m.Model.name;
            exit 2
          end;
          [ m ]
      | None ->
          List.filter
            (fun (m : Model.t) -> m.Model.executable)
            (Model.trace_pred_counter :: Model.all)
    in
    let results =
      List.concat_map
        (fun (w : Dsl.t) ->
          let program = preoptimize opt w.Dsl.program in
          let _, profile =
            Driver.profile_of program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
          in
          List.map
            (fun (model : Model.t) ->
              (* compile unverified, then run the verifier ourselves: the
                 point of this command is the report, not the exception
                 the driver would turn it into *)
              let compiled =
                Driver.compile ~verify:false ~model ~machine ~profile program
              in
              let report =
                match compiled.Driver.pcode with
                | Some code -> Psb_verify.Verify.run machine code
                | None -> assert false (* executable models emit pcode *)
              in
              (w, model, report))
            models)
        workloads
    in
    let failed =
      List.exists (fun (_, _, r) -> not (Psb_verify.Verify.ok r)) results
    in
    if json then begin
      let open Psb_obs.Json in
      let doc =
        obj
          [
            ("machine", String (Format.asprintf "%a" Machine_model.pp machine));
            ("ok", Bool (not failed));
            ( "results",
              List
                (List.map
                   (fun ((w : Dsl.t), (m : Model.t), r) ->
                     obj
                       [
                         ("workload", String w.Dsl.name);
                         ("model", String m.Model.name);
                         ("report", Psb_verify.Verify.to_json r);
                       ])
                   results) );
          ]
      in
      print_endline (to_string doc)
    end
    else
      List.iter
        (fun ((w : Dsl.t), (m : Model.t), r) ->
          Format.printf "%-10s %-16s %a@." w.Dsl.name m.Model.name
            Psb_verify.Verify.pp r)
        results;
    if failed then exit 1
  in
  let wopt = Arg.(value & pos 0 (some wconv) None & info [] ~docv:"WORKLOAD") in
  let mopt =
    Arg.(
      value
      & opt (some mconv) None
      & info [ "m"; "model" ] ~docv:"MODEL"
          ~doc:"Verify only this executable model (default: all executable \
                models).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one machine-readable JSON document instead of text.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles $(i,WORKLOAD) (default: every workload in the suite, \
         demos included) for each executable model and runs the static \
         speculation-safety verifier over the emitted predicated code: \
         predicate well-formedness, shadow-register / store-buffer \
         capacity, recovery soundness and WAW commit order (the catalogue \
         lives in docs/INVARIANTS.md). One line per (workload, model) \
         pair; violations are listed with their region, bundle and slot. \
         Exits 1 if any check fails, 2 on usage errors.";
    ]
  in
  Cmd.v
    (Cmd.info "verify" ~man
       ~doc:"Statically verify compiled code against the speculation-safety \
             invariants")
    Term.(const run $ wopt $ mopt $ issue_arg $ optimize_arg $ json)

(* ----- experiments ----- *)

let jobs_arg =
  Arg.(
    value
    & opt int (Psb_parallel.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Shard experiment cells over $(docv) domains (default: physical \
           cores). Results are byte-identical at every level.")

let experiments_cmd =
  let run jobs names =
    (* [limits-gen] needs the fuzzer's program generator, which sits above
       [Psb_eval], so it is listed here rather than in
       [Report.experiments]. *)
    let table =
      Psb_eval.Report.experiments
      @ [
          ( "limits-gen",
            "ILP limit study over the random-generator fleet",
            fun _ ppf ->
              Psb_eval.Limits.pp ppf
                (Psb_proptest.Fuzz.limits_fleet ~n:8 ~seed:7 ()) );
        ]
    in
    List.iter
      (fun n ->
        if not (List.exists (fun (m, _, _) -> m = n) table) then begin
          Format.eprintf
            "psb experiments: unknown experiment %s; available: %s@." n
            (String.concat " " (List.map (fun (m, _, _) -> m) table));
          exit 2
        end)
      names;
    let pool =
      if jobs > 1 then Some (Psb_parallel.Pool.create ~jobs ()) else None
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Psb_parallel.Pool.shutdown pool)
    @@ fun () ->
    let h = lazy (Psb_eval.Harness.create ?pool ()) in
    List.iter
      (fun (name, _, print) ->
        if names = [] || List.mem name names then
          Format.printf "== %s ==@.%t@.@." name (print h))
      table
  in
  let names = Arg.(value & pos_all string [] & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures (all, or by name)")
    Term.(const run $ jobs_arg $ names)

(* ----- fuzz: sharded pipeline differential campaigns ----- *)

let fuzz_cmd =
  let module F = Psb_proptest.Fuzz in
  let module G = Psb_proptest.Gen in
  let demand_name = function `On -> "on" | `Off -> "off" | `Random -> "random" in
  let run trials seed jobs corpus replay inject only no_shrink diamonds iters
      nesting alias_mask fault_rate demand json =
    (* under --json the summary document owns stdout; progress and
       counterexample listings move to stderr *)
    let say fmt =
      Format.fprintf
        (if json then Format.err_formatter else Format.std_formatter)
        fmt
    in
    let inject =
      Option.map
        (fun s ->
          match Psb_proptest.Inject.of_name s with
          | Ok t -> t
          | Error m ->
              Format.eprintf "psb fuzz: %s@." m;
              exit 2)
        inject
    in
    match replay with
    | Some dir ->
        (* replay mode: every corpus entry through the full differential *)
        let entries = Psb_proptest.Corpus.load_dir dir in
        if entries = [] then
          Format.printf "psb fuzz: no .psbasm files under %s@." dir;
        let failures =
          List.filter_map
            (fun (file, loaded) ->
              match loaded with
              | Error m -> Some (file, Printf.sprintf "load error: %s" m)
              | Ok g -> (
                  match Psb_proptest.Diff.check ?inject g with
                  | Ok () ->
                      Format.printf "  ok   %s@." file;
                      None
                  | Error f ->
                      Format.printf "  FAIL %s: %s@." file
                        (Psb_proptest.Diff.pp_failure f);
                      Some (file, Psb_proptest.Diff.pp_failure f)))
            entries
        in
        Format.printf "replayed %d, %d failed@." (List.length entries)
          (List.length failures);
        if failures <> [] then exit 1
    | None ->
        let seed =
          match seed with
          | Some s -> s
          | None ->
              Random.self_init ();
              Random.int 1_000_000_000
        in
        let shape =
          {
            G.default_shape with
            G.max_diamonds = diamonds;
            max_iters = iters;
            nesting;
            alias_mask;
            fault_prob = fault_rate;
            demand;
          }
        in
        let cfg =
          {
            F.trials;
            seed;
            shape;
            inject;
            shrink = not no_shrink;
            max_shrink_steps = F.default.F.max_shrink_steps;
            max_counterexamples = F.default.F.max_counterexamples;
          }
        in
        let cfg, descr =
          match only with
          | Some i ->
              (* replay exactly one trial of a previous campaign *)
              ( { cfg with F.trials = i + 1 },
                Printf.sprintf "trial %d of seed %d" i seed )
          | None -> (cfg, Printf.sprintf "%d trials, seed %d" trials seed)
        in
        say
          "psb fuzz: %s%s (replay: psb fuzz --seed %d -n %d --diamonds %d \
           --iters %d --nesting %d --alias-mask %d --fault-rate %s --demand \
           %s%s)@."
          descr
          (match inject with
          | Some b -> " [injected bug: " ^ Psb_proptest.Inject.name b ^ "]"
          | None -> "")
          seed cfg.F.trials diamonds iters nesting alias_mask
          (* the shortest text that parses back to the same float *)
          (let s = Printf.sprintf "%.15g" fault_rate in
           if float_of_string s = fault_rate then s
           else Printf.sprintf "%.17g" fault_rate)
          (demand_name demand)
          (match inject with
          | Some b -> " --inject " ^ Psb_proptest.Inject.name b
          | None -> "");
        let outcome =
          let campaign pool =
            match only with
            | Some i -> (
                let t0 = Unix.gettimeofday () in
                let times : (string, float) Hashtbl.t = Hashtbl.create 8 in
                let recoveries = Psb_proptest.Diff.no_recoveries () in
                let finish counterexamples =
                  {
                    F.tested = 1;
                    counterexamples;
                    wall_s = Unix.gettimeofday () -. t0;
                    stage_seconds =
                      Hashtbl.fold (fun k v acc -> (k, v) :: acc) times [];
                    recoveries = Array.to_list recoveries;
                  }
                in
                let g = F.gen_trial cfg i in
                match Psb_proptest.Diff.check ?inject ~times ~recoveries g with
                | Ok () -> finish []
                | Error f ->
                    let g, f, steps =
                      if cfg.F.shrink then F.minimize cfg g f else (g, f, 0)
                    in
                    finish
                      [
                        {
                          F.cx_trial = i;
                          cx_stage = f.Psb_proptest.Diff.stage;
                          cx_detail = f.Psb_proptest.Diff.detail;
                          cx_program = g;
                          cx_shrink_steps = steps;
                        };
                      ])
            | None ->
                F.run ?pool
                  ~on_progress:(fun ~tested ~found ->
                    say "  tested %d/%d, %d counterexample(s)@." tested
                      cfg.F.trials found)
                  cfg
          in
          if jobs > 1 then
            Psb_parallel.Pool.with_pool ~jobs (fun pool -> campaign (Some pool))
          else campaign None
        in
        List.iter
          (fun (cx : F.counterexample) ->
            say "@.counterexample (trial %d, %d shrink steps) at %s:@."
              cx.F.cx_trial cx.F.cx_shrink_steps cx.F.cx_stage;
            say "  %s@." cx.F.cx_detail;
            say "%s@." (G.pp cx.F.cx_program);
            match corpus with
            | Some dir ->
                let path =
                  Psb_proptest.Corpus.save ~dir ~seed ~stage:cx.F.cx_stage
                    ~detail:cx.F.cx_detail cx.F.cx_program
                in
                say "saved %s@." path
            | None -> ())
          outcome.F.counterexamples;
        if json then begin
          let open Psb_obs.Json in
          let doc =
            obj
              [
                ("schema", String "psb-fuzz-v1");
                ("trials", Int cfg.F.trials);
                ("seed", Int seed);
                ("jobs", Int jobs);
                ("tested", Int outcome.F.tested);
                ("wall_s", Float outcome.F.wall_s);
                ("trials_per_second", Float (F.trials_per_second outcome));
                ( "stage_seconds",
                  Obj
                    (List.map
                       (fun (k, v) -> (k, Float v))
                       outcome.F.stage_seconds) );
                ( "recoveries",
                  Obj
                    (List.map
                       (fun (r : Psb_proptest.Diff.recoveries) ->
                         ( r.model,
                           obj
                             [
                               ("halted", Int r.halted);
                               ("fatal", Int r.fatal);
                               ("faults_handled", Int r.faults_handled);
                             ] ))
                       outcome.F.recoveries) );
                ( "counterexamples",
                  List
                    (List.map
                       (fun (cx : F.counterexample) ->
                         obj
                           [
                             ("trial", Int cx.F.cx_trial);
                             ("stage", String cx.F.cx_stage);
                             ("detail", String cx.F.cx_detail);
                             ("shrink_steps", Int cx.F.cx_shrink_steps);
                             ("program", String (G.pp cx.F.cx_program));
                           ])
                       outcome.F.counterexamples) );
              ]
          in
          print_endline (to_string doc)
        end
        else begin
          Format.printf "@.%d tested, %d counterexample(s) in %.2fs (%.1f \
                         trials/s)@."
            outcome.F.tested
            (List.length outcome.F.counterexamples)
            outcome.F.wall_s
            (F.trials_per_second outcome);
          if outcome.F.stage_seconds <> [] then begin
            Format.printf "per-stage cumulative seconds (all trials%s):@."
              (if jobs > 1 then ", summed across domains" else "");
            List.iter
              (fun (k, v) -> Format.printf "  %-8s %8.3f@." k v)
              outcome.F.stage_seconds
          end;
          Format.printf
            "trials whose vliw run recovered, by scalar outcome:@.";
          List.iter
            (fun (r : Psb_proptest.Diff.recoveries) ->
              Format.printf "  %-16s halted %d, fatal %d, faults handled %d@."
                r.model r.halted r.fatal r.faults_handled)
            outcome.F.recoveries
        end;
        if outcome.F.counterexamples <> [] then exit 1
  in
  let trials =
    Arg.(
      value & opt int 200
      & info [ "n"; "trials" ] ~docv:"N" ~doc:"Number of random programs.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign seed (default: self-initialised; printed either way so \
             any run replays with $(b,--seed)).")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Write minimized counterexamples as .psbasm files into $(docv) \
             (content-addressed, so re-finding a bug never duplicates).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Replay every .psbasm corpus file in $(docv) through the full \
             differential instead of fuzzing (e.g. $(b,test/corpus)).")
  in
  let inject =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"BUG"
          ~doc:
            "Apply a deliberate miscompile before verify/run \
             ($(b,sched-order)). The campaign must then find a \
             counterexample — the harness's fire drill.")
  in
  let only =
    Arg.(
      value
      & opt (some int) None
      & info [ "only" ] ~docv:"I"
          ~doc:"Run only trial $(docv) of the given seed (counterexample replay).")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report unshrunk programs.")
  in
  (* the shape defaults are the generator's, so a campaign seed draws
     the same programs here as in [Fuzz.default] and the benchmark *)
  let shape = G.default_shape in
  let diamonds =
    Arg.(
      value & opt int shape.G.max_diamonds
      & info [ "diamonds" ] ~docv:"N" ~doc:"Max diamonds per loop body.")
  in
  let iters =
    Arg.(
      value & opt int shape.G.max_iters
      & info [ "iters" ] ~docv:"N" ~doc:"Max loop trip count.")
  in
  let nesting =
    Arg.(
      value & opt int shape.G.nesting
      & info [ "nesting" ] ~docv:"D"
          ~doc:"Loop-nesting depth (2 enables an inner counted loop).")
  in
  let alias_mask =
    Arg.(
      value & opt int shape.G.alias_mask
      & info [ "alias-mask" ] ~docv:"MASK"
          ~doc:
            "Address mask for generated memory ops — smaller means denser \
             aliasing.")
  in
  let fault_rate =
    Arg.(
      value & opt float shape.G.fault_prob
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Relative weight of faulting division among generated ops.")
  in
  let demand =
    Arg.(
      value
      & opt (enum (List.map (fun d -> (demand_name d, d)) [ `On; `Off; `Random ]))
          shape.G.demand
      & info [ "demand" ] ~docv:"MODE" ~doc:"Demand-paged memory: on, off, random.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the campaign summary (tested, wall-clock, trials/s, \
             per-stage cumulative seconds, counterexamples) as a JSON \
             document on stdout; progress moves to stderr.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the whole pipeline: random programs through every stage \
          differential (the decoded form's round trip, \
          interpreter/ROB/VLIW, verify-then-run, the VLIW lowering's round \
          trip, compile cache), shrinking failures to minimal \
          counterexamples")
    Term.(
      const run $ trials $ seed $ jobs_arg $ corpus $ replay $ inject $ only
      $ no_shrink $ diamonds $ iters $ nesting $ alias_mask $ fault_rate
      $ demand $ json)

let () =
  let doc = "Unconstrained speculative execution with predicated state buffering" in
  let info = Cmd.info "psb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; compile_cmd; sim_cmd; rob_cmd; speedup_cmd;
            trace_cmd; timeline_cmd; profile_cmd; speculate_cmd; verify_cmd;
            exec_cmd; pexec_cmd; experiments_cmd; fuzz_cmd;
          ]))
