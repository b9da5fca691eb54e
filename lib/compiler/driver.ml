open Psb_isa
module Machine_model = Psb_machine.Machine_model
module Pcode = Psb_machine.Pcode
module Vliw_sim = Psb_machine.Vliw_sim
module Branch_predict = Psb_cfg.Branch_predict
module Cfg = Psb_cfg.Cfg
module Dominance = Psb_cfg.Dominance
module Loops = Psb_cfg.Loops

type compiled = {
  model : Model.t;
  machine : Machine_model.t;
  units : Runit.t Label.Map.t;
  schedules : Sched.t Label.Map.t;
  pcode : Pcode.t option;
  lowered : Psb_machine.Lowered.t option;
}

let code_size c =
  match c.pcode with
  | Some code -> Pcode.num_slots code
  | None ->
      Label.Map.fold
        (fun _ (u : Runit.t) acc ->
          acc + Array.length u.Runit.instrs + Array.length u.Runit.exits)
        c.units 0

(* [=] on pcode compares representations (shadow-source sets are
   balanced trees), which is exact here: compiling is deterministic, so
   equal compiles build their sets by the same insertions. *)
let compiled_equal a b =
  code_size a = code_size b
  && Label.Map.equal
       (fun (s1 : Sched.t) (s2 : Sched.t) -> s1.Sched.issue = s2.Sched.issue)
       a.schedules b.schedules
  && a.pcode = b.pcode

(* Unit formations already made for this program, newest first. A list
   in an atomic: a domain that misses forms the units outside any lock
   and publishes them by compare-and-set; if another domain published
   the same key first, its value wins, so every compile sees one map. *)
type unit_memo =
  (Runit.params * Branch_predict.t * Runit.t Label.Map.t) list Atomic.t

type analysis = {
  program : Program.t;
  cfg : Cfg.t;
  loop_heads : Label.t list;
  decoded : Decoded.t;
  unit_memo : unit_memo;
}

let timed metrics pass f =
  match metrics with
  | None -> f ()
  | Some m ->
      Psb_obs.Metrics.time m "compile_pass_seconds" ~labels:[ ("pass", pass) ] f

let analyze ?metrics program =
  let cfg, loop_heads =
    timed metrics "cfg" (fun () ->
        let cfg = Cfg.of_program program in
        (cfg, Loops.loop_heads cfg (Dominance.compute cfg)))
  in
  let decoded = timed metrics "decode" (fun () -> Decoded.of_program program) in
  { program; cfg; loop_heads; decoded; unit_memo = Atomic.make [] }

(* Params compare structurally, profiles physically. *)
let rec find_units params profile = function
  | [] -> None
  | (p, prof, units) :: rest ->
      if prof == profile && p = params then Some units
      else find_units params profile rest

let units_of a params profile =
  match find_units params profile (Atomic.get a.unit_memo) with
  | Some units -> units
  | None ->
      let units =
        Runit.build_all params a.cfg profile ~loop_heads:a.loop_heads
          ~entry:a.program.Program.entry
      in
      let rec publish () =
        let seen = Atomic.get a.unit_memo in
        match find_units params profile seen with
        | Some first -> first
        | None ->
            if Atomic.compare_and_set a.unit_memo seen ((params, profile, units) :: seen)
            then units
            else publish ()
      in
      publish ()

let profile_of program ~regs ~mem =
  let result = Interp.run ~regs ~mem program in
  let cfg = Cfg.of_program program in
  let trace = Trace.of_result program result in
  (result, Branch_predict.of_trace cfg trace)

let compile_uncached ?metrics ~avoid_commit_deps ~verify ~model ~machine
    ~profile analysis =
  let program = analysis.program in
  let timed pass f = timed metrics pass f in
  let params =
    Runit.default_params ~scope:model.Model.scope
      ~max_conds:machine.Machine_model.ccr_size
      ~fuse_compare:model.Model.branch_elim ~avoid_commit_deps ()
  in
  let units = timed "unit_formation" (fun () -> units_of analysis params profile) in
  let schedules = timed "schedule" (fun () ->
      Label.Map.map (fun u -> Sched.schedule model machine u) units)
  in
  timed "check" (fun () ->
      Label.Map.iter
        (fun header sched ->
          match Sched.check sched model machine with
          | Ok () -> ()
          | Error e ->
              failwith
                (Format.asprintf "Driver.compile: %s schedule for %a invalid: %s"
                   model.Model.name Label.pp header e))
        schedules);
  let pcode =
    if model.Model.executable then
      timed "emit" (fun () ->
          let regions =
            Label.Map.bindings schedules |> List.map (fun (_, s) -> Sched.emit s)
          in
          let code = Pcode.make ~entry:program.Program.entry regions in
          (match Pcode.check_resources machine code with
          | Ok () -> ()
          | Error e ->
              failwith ("Driver.compile: emitted code over budget: " ^ e));
          Some code)
    else None
  in
  (match pcode with
  | Some code when verify ->
      timed "verify" (fun () ->
          let report = Psb_verify.Verify.run machine code in
          (match metrics with
          | Some m -> Psb_verify.Verify.observe_metrics report m
          | None -> ());
          if not (Psb_verify.Verify.ok report) then
            failwith
              (Format.asprintf
                 "Driver.compile: %s code fails speculation-safety \
                  verification@.%a"
                 model.Model.name Psb_verify.Verify.pp report))
  | _ -> ());
  (* Lower the verified regions to the flat threaded form the machine
     walks; cached alongside the pcode so every cache hit skips the
     lowering too. *)
  let lowered =
    Option.map
      (fun code ->
        timed "lower" (fun () -> Psb_machine.Lowered.compile ~machine code))
      pcode
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let open Psb_obs.Metrics in
      inc (counter m "compile_units") ~by:(Label.Map.cardinal units);
      let density =
        histogram m "sched_density"
          ~buckets:[ 0.5; 1.; 1.5; 2.; 2.5; 3.; 3.5; 4.; 6.; 8. ]
      in
      Label.Map.iter
        (fun _ (s : Sched.t) ->
          if s.Sched.length > 0 then
            observe density
              (float_of_int (Array.length s.Sched.issue)
              /. float_of_int s.Sched.length))
        schedules);
  { model; machine; units; schedules; pcode; lowered }

let compile ?metrics ?cache ?analysis ?(avoid_commit_deps = false)
    ?(verify = true) ~model ~machine ~profile program =
  (match analysis with
  | Some a when a.program != program ->
      invalid_arg "Driver.compile: analysis built from a different program"
  | _ -> ());
  if machine.Machine_model.ccr_size > Pred.word_bits then
    invalid_arg
      (Printf.sprintf
         "Driver.compile: ccr_size %d is past the %d conditions a predicate \
          can name"
         machine.Machine_model.ccr_size Pred.word_bits);
  let build () =
    let analysis =
      match analysis with Some a -> a | None -> analyze ?metrics program
    in
    compile_uncached ?metrics ~avoid_commit_deps ~verify ~model ~machine
      ~profile analysis
  in
  match cache with
  | None -> build ()
  | Some cache ->
      let key =
        Compile_cache.key ~model ~machine ~avoid_commit_deps ~verify ~profile
          program
      in
      Compile_cache.find_or_compile cache key build

let estimate_cycles c program ~block_trace =
  (Cycles.measure ~units:c.units ~schedules:c.schedules program ~block_trace)
    .Cycles.cycles

let run_vliw ?fuel ?events ?metrics c ~regs ~mem =
  match c.lowered with
  | None ->
      invalid_arg
        (Format.asprintf "Driver.run_vliw: model %s is not executable"
           c.model.Model.name)
  | Some lowered -> Vliw_sim.run ?fuel ?events ?metrics ~regs ~mem lowered
