open Psb_isa
open Psb_compiler
module Machine_model = Psb_machine.Machine_model
module Vliw_sim = Psb_machine.Vliw_sim
module Lowered = Psb_machine.Lowered
module Rob_sim = Psb_machine.Rob_sim
module Verify = Psb_verify.Verify

type failure = { stage : string; detail : string }

let pp_failure f = Printf.sprintf "[%s] %s" f.stage f.detail

exception Failed of failure

let fail stage fmt = Format.kasprintf (fun detail -> raise (Failed { stage; detail })) fmt

(* A stage that raises (Machine_error on injected code, Failure from the
   compiler, stack overflow in a runaway pass) is a finding at that
   stage, not a harness crash. *)
let staged stage f =
  try f ()
  with
  | Failed _ as e -> raise e
  | e -> fail stage "raised %s" (Printexc.to_string e)

(* Coarse per-stage wall-clock, accumulated into a caller-owned table
   (one per trial under the fuzz pool — domains must not share one). *)
let timed times bucket f =
  match times with
  | None -> f ()
  | Some tbl ->
      let t0 = Unix.gettimeofday () in
      Fun.protect f ~finally:(fun () ->
          let prev =
            match Hashtbl.find_opt tbl bucket with Some v -> v | None -> 0.
          in
          Hashtbl.replace tbl bucket (prev +. Unix.gettimeofday () -. t0))

let scalar_fuel = 500_000
let vliw_fuel = 2_000_000

(* cycle fuel, not instruction fuel: the out-of-order backend burns
   frontend/stall cycles the interpreter never sees *)
let rob_fuel = 4_000_000

let outcomes_match (a : Interp.outcome) (b : Interp.outcome) =
  match (a, b) with
  | Interp.Halted, Interp.Halted -> true
  | Interp.Fatal f1, Interp.Fatal f2 -> Fault.equal f1 f2
  | Interp.Out_of_fuel, Interp.Out_of_fuel -> true
  | _ -> false

let pp_out l = String.concat "," (List.map string_of_int l)

let executable_models =
  List.filter (fun (m : Model.t) -> m.Model.executable) Model.all

type recoveries = { model : string; halted : int; fatal : int; faults_handled : int }

let no_recoveries () =
  Array.of_list
    (List.map
       (fun (m : Model.t) ->
         { model = m.Model.name; halted = 0; fatal = 0; faults_handled = 0 })
       executable_models)

let add_recoveries ~into r =
  Array.iteri
    (fun i a ->
      let b = r.(i) in
      into.(i) <-
        {
          a with
          halted = a.halted + b.halted;
          fatal = a.fatal + b.fatal;
          faults_handled = a.faults_handled + b.faults_handled;
        })
    into

(* Model [i]'s VLIW run, counted: whether it entered recovery, under the
   scalar outcome, and the faults it handled. *)
let count_recovery counts i (scalar : Interp.result) (vliw : Vliw_sim.result) =
  let c = counts.(i) in
  let recovered = vliw.Vliw_sim.stats.Vliw_sim.recoveries > 0 in
  let under outcome = Bool.to_int (recovered && outcome) in
  counts.(i) <-
    {
      c with
      halted = c.halted + under (scalar.Interp.outcome = Interp.Halted);
      fatal =
        c.fatal
        + under (match scalar.Interp.outcome with Interp.Fatal _ -> true | _ -> false);
      faults_handled = c.faults_handled + vliw.Vliw_sim.faults_handled;
    }

(* the out-of-order ROB backend must be architecturally
   byte-identical to the interpreter — outcome (same fatal fault),
   output, final registers, final memory and the handled-fault count;
   predicated-state buffering and reorder-buffer speculation are rival
   mechanisms for the same contract. The cycle-accounting breakdown must
   also sum exactly to the cycle count. *)
let check_rob (g : Gen.t) ~decoded (reference : Interp.result) ref_mem =
  staged "rob-vs-interp" (fun () ->
      let mem = Gen.make_mem g in
      let r =
        Rob_sim.run ~fuel:rob_fuel ~decoded ~model:Machine_model.base
          ~regs:Gen.regs ~mem g.Gen.program
      in
      if not (outcomes_match reference.Interp.outcome r.Rob_sim.outcome) then
        fail "rob-vs-interp" "interp %a, rob %a" Interp.pp_outcome
          reference.Interp.outcome Interp.pp_outcome r.Rob_sim.outcome;
      if reference.Interp.output <> r.Rob_sim.output then
        fail "rob-vs-interp" "output %s vs %s"
          (pp_out reference.Interp.output)
          (pp_out r.Rob_sim.output);
      if not (Reg.Map.equal Int.equal reference.Interp.regs r.Rob_sim.regs)
      then fail "rob-vs-interp" "final registers differ";
      if not (Memory.equal ref_mem mem) then
        fail "rob-vs-interp" "final memory differs";
      if reference.Interp.faults_handled <> r.Rob_sim.faults_handled then
        fail "rob-vs-interp" "faults handled: interp %d, rob %d"
          reference.Interp.faults_handled r.Rob_sim.faults_handled;
      let bd = Rob_sim.breakdown_total r.Rob_sim.breakdown in
      if bd <> r.cycles then
        fail "rob-vs-interp" "breakdown sums to %d but cycles = %d" bd
          r.cycles)

(* Runs the checked lowered form itself, on the code it was lowered
   from. Not [Driver.run_vliw]: injected miscompiles can loop forever,
   so the machine needs a much shorter leash than its 60M default. *)
let run_vliw (lowered : Lowered.t) ~mem =
  Vliw_sim.run ~fuel:vliw_fuel ~lowered ~model:lowered.Lowered.machine
    ~regs:Gen.regs ~mem lowered.Lowered.source

(* compile, verify, lowering round trip and run, once per executable
   model; returns the compile, before any injection, and the run *)
let check_model ?inject ?cache ~analysis (g : Gen.t) (scalar : Interp.result)
    scalar_mem profile (model : Model.t) =
  let m = model.Model.name in
  let stage s = m ^ "/" ^ s in
  let built =
    staged (stage "compile") (fun () ->
        Driver.compile ?cache ~analysis ~verify:false ~model
          ~machine:Machine_model.base ~profile g.Gen.program)
  in
  let compiled =
    match (inject, built.Driver.pcode) with
    | Some bug, Some pcode ->
        (* the cached lowering describes the uninjected pcode; keeping it
           would mask the very miscompile we just planted, so the
           lowering stage lowers the injected code *)
        {
          built with
          Driver.pcode = Some (Inject.apply bug pcode);
          Driver.lowered = None;
        }
    | _ -> built
  in
  (* verify-then-run: the static verifier must accept what we are about
     to execute (on injected code, a rejection here is the bug being
     caught at compile time — still a finding for the fuzzer) *)
  staged (stage "verify") (fun () ->
      match compiled.Driver.pcode with
      | None -> ()
      | Some pcode ->
          let report = Verify.run Machine_model.base pcode in
          if not (Verify.ok report) then
            fail (stage "verify") "%a" Verify.pp report);
  (* the lowering must say what the verified pcode says: raised back to
     slots it equals the source, latencies included; the machine then
     runs this very value *)
  let lowered =
    staged (stage "lowering") (fun () ->
        let lowered =
          match (compiled.Driver.lowered, compiled.Driver.pcode) with
          | Some l, _ -> l
          | None, Some pcode ->
              Lowered.compile ~machine:compiled.Driver.machine pcode
          | None, None -> invalid_arg "Diff.check_model: model not executable"
        in
        match Lowered.check lowered with
        | Ok () -> lowered
        | Error e -> fail (stage "lowering") "%s" e)
  in
  let vliw_mem = Gen.make_mem g in
  let vliw =
    staged (stage "vliw-vs-scalar") (fun () -> run_vliw lowered ~mem:vliw_mem)
  in
  staged (stage "vliw-vs-scalar") (fun () ->
      match scalar.Interp.outcome with
      | Interp.Out_of_fuel -> ()
      | Interp.Fatal _ -> (
          (* only same-fatality is defined: the compiler may hoist
             independent side effects above a fatal trap *)
          match vliw.Vliw_sim.outcome with
          | Interp.Fatal _ -> ()
          | o -> fail (stage "vliw-vs-scalar") "fatal scalar but vliw %a"
                   Interp.pp_outcome o)
      | Interp.Halted ->
          if not (outcomes_match scalar.Interp.outcome vliw.Vliw_sim.outcome)
          then
            fail (stage "vliw-vs-scalar") "outcome %a" Interp.pp_outcome
              vliw.Vliw_sim.outcome;
          if scalar.Interp.output <> vliw.Vliw_sim.output then
            fail (stage "vliw-vs-scalar") "output %s vs %s"
              (pp_out scalar.Interp.output) (pp_out vliw.Vliw_sim.output);
          if not (Memory.equal scalar_mem vliw_mem) then
            fail (stage "vliw-vs-scalar") "final memory differs";
          if scalar.Interp.faults_handled > 0 && vliw.Vliw_sim.faults_handled = 0
          then
            fail (stage "vliw-vs-scalar")
              "scalar recovered %d faults but vliw reported no recovery"
              scalar.Interp.faults_handled);
  (built, vliw)

(* The flagship model's compile went through the trial's cache (its key
   covers model, machine and options, so one model suffices per
   program): the same lookup must hit it, and it must equal one
   independent cold compile that shares neither the analysis nor the
   cache. *)
let check_cache (g : Gen.t) ~analysis ~cache profile (cached : Driver.compiled)
    =
  staged "cache" (fun () ->
      let compile ?cache ?analysis () =
        Driver.compile ?cache ?analysis ~verify:false ~model:Model.region_pred
          ~machine:Machine_model.base ~profile g.Gen.program
      in
      if not (compile ~cache ~analysis () == cached) then
        fail "cache" "lookup recompiled instead of hitting";
      if not (Driver.compiled_equal cached (compile ())) then
        fail "cache" "cached compile differs structurally from a cold compile")

let check ?inject ?times ?recoveries (g : Gen.t) =
  try
    (* analyse once; every scalar and ROB stage below reuses the decoded
       form, and every compile the CFG and loop heads *)
    let analysis =
      timed times "decode" (fun () ->
          staged "decode" (fun () -> Driver.analyze g.Gen.program))
    in
    let decoded = analysis.Driver.decoded in
    (* the form every scalar and ROB run walks must say what the
       program says *)
    timed times "scalar" (fun () ->
        staged "decode" (fun () ->
            match Decoded.check decoded with
            | Ok () -> ()
            | Error e -> fail "decode" "%s" e));
    let scalar_mem = Gen.make_mem g in
    let scalar =
      timed times "interp" (fun () ->
          staged "interp" (fun () ->
              Interp.run ~fuel:scalar_fuel ~decoded ~regs:Gen.regs
                ~mem:scalar_mem g.Gen.program))
    in
    if scalar.Interp.outcome = Interp.Out_of_fuel then Ok ()
    else begin
      timed times "rob" (fun () -> check_rob g ~decoded scalar scalar_mem);
      (* the training profile is the reference run's own block trace *)
      let profile =
        timed times "profile" (fun () ->
            staged "profile" (fun () ->
                Driver.Branch_predict.of_trace analysis.Driver.cfg
                  (Trace.of_result g.Gen.program scalar)))
      in
      let cache = Compile_cache.create () in
      (* only the flagship's compile outlives its own checks: holding
         every model's until the cache stage raises peak memory *)
      let flagship =
        timed times "models" (fun () ->
            List.fold_left
              (fun (i, kept) (model : Model.t) ->
                let flagship = model == Model.region_pred in
                let compiled, vliw =
                  check_model ?inject
                    ?cache:(if flagship then Some cache else None)
                    ~analysis g scalar scalar_mem profile model
                in
                Option.iter (fun c -> count_recovery c i scalar vliw) recoveries;
                (i + 1, if flagship then Some compiled else kept))
              (0, None) executable_models
            |> snd)
      in
      (match (inject, flagship) with
      | None, Some cached ->
          timed times "cache" (fun () ->
              check_cache g ~analysis ~cache profile cached)
      | _ -> ());
      Ok ()
    end
  with Failed f -> Error f
