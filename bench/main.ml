(* Benchmark & experiment harness.

   Default: regenerate every table and figure of the paper (plus the
   ablations) and print them.

     dune exec bench/main.exe                   # everything
     dune exec bench/main.exe -- table2         # one experiment
     dune exec bench/main.exe -- --json         # everything, as one JSON
                                                # document (Report schema)
     dune exec bench/main.exe -- --json fig6    # a subset, as JSON
     dune exec bench/main.exe -- bechamel       # Bechamel timings: table
                                                # regeneration + kernels
     dune exec bench/main.exe -- bechamel --json pred_kernel
                                                # one bench group, as JSON
     dune exec bench/main.exe -- --baseline BENCH_5.json --threshold 50
                                                # regression gate: re-run the
                                                # baseline's bench groups and
                                                # exit 1 past the threshold

   -j N / --jobs N (default: physical cores) shards the experiment cells
   over a work-stealing domain pool; the experiments member of --json
   output is byte-identical at every -j level (only the "runtime"
   section varies).

   Every compile is checked by the static speculation-safety verifier
   (lib/verify) and aborts the run on a violation.

   Experiments: table2 table3 fig6 fig7 fig8 related shadow validation
   counter btb dup size unroll sweep limits hwcost rob limits-gen; an
   unknown name exits 2 with the list. *)

open Psb_eval
module Pool = Psb_parallel.Pool

let jobs = ref (Pool.default_jobs ())
let baseline_file : string option ref = ref None
let threshold = ref 50.
let pool = lazy (if !jobs > 1 then Some (Pool.create ~jobs:!jobs ()) else None)
let harness () = Harness.create ?pool:(Lazy.force pool) ()
let h = lazy (harness ())

(* [limits-gen] needs the fuzzer's program generator, which sits above
   [Psb_eval], so it is listed here rather than in [Report.experiments]. *)
let experiments =
  Report.experiments
  @ [
      ( "limits-gen",
        "ILP limit study over the random-generator fleet",
        fun _ ppf ->
          Limits.pp ppf (Psb_proptest.Fuzz.limits_fleet ~n:8 ~seed:7 ()) );
    ]

let usage_error name =
  Format.eprintf "unknown experiment %s; available: %s@." name
    (String.concat " " (List.map (fun (n, _, _) -> n) experiments));
  exit 2

let run_one name =
  match List.find_opt (fun (n, _, _) -> n = name) experiments with
  | Some (_, _, f) ->
      f h Format.std_formatter;
      Format.printf "@."
  | None -> usage_error name

let run_all () =
  List.iter
    (fun (name, desc, f) ->
      Format.printf "== %s: %s ==@." name desc;
      f h Format.std_formatter;
      Format.printf "@.@.")
    experiments

(* ----- pred_kernel microbenches -----

   Per-cycle predicate evaluation with the ternary-mask kernel, on
   the two structures that re-evaluate predicates every cycle
   (register-file versions, store-buffer entries). All predicates
   mention only unspecified conditions so every tick stays Unspec and
   the timed state survives arbitrarily many iterations; [gated]
   variants pass [dirty:0] to measure the skip fast path. *)
module Pred_bench = struct
  open Psb_isa
  module Regfile = Psb_machine.Regfile
  module Store_buffer = Psb_machine.Store_buffer
  module Ccr = Psb_machine.Ccr

  let entries = 16

  let pred i =
    Pred.of_list
      [ (Cond.make (i mod 4), true); (Cond.make (4 + (i mod 4)), i mod 2 = 0) ]

  let ccr = lazy (Ccr.create ~width:8)

  let rf =
    lazy
      (let rf = Regfile.create ~mode:Regfile.Single ~nregs:entries () in
       for i = 0 to entries - 1 do
         match
           Regfile.write_spec rf (Reg.make i) i
             ~pred:(pred i) ~fault:None
         with
         | `Ok -> ()
         | `Conflict -> assert false
       done;
       rf)

  let sb =
    lazy
      (let sb = Store_buffer.create () in
       for i = 0 to entries - 1 do
         Store_buffer.append sb ~addr:i ~value:i
           ~pred:(pred i) ~spec:true ~fault:None
       done;
       sb)

  let tests () =
    let open Bechamel in
    let t name f = Test.make ~name (Staged.stage f) in
    let rf_tick ~dirty () =
      Regfile.tick ~dirty (Lazy.force rf) (Lazy.force ccr)
    and sb_tick ~dirty () =
      Store_buffer.tick ~dirty (Lazy.force sb) (Lazy.force ccr)
    in
    let p = pred 0 in
    Test.make_grouped ~name:"pred_kernel"
      [
        t "eval/mask" (fun () -> ignore (Ccr.evalc (Lazy.force ccr) p));
        t "rf_tick/mask" (rf_tick ~dirty:(-1));
        t "rf_tick/mask_gated" (rf_tick ~dirty:0);
        t "sb_tick/mask" (sb_tick ~dirty:(-1));
        t "sb_tick/mask_gated" (sb_tick ~dirty:0);
      ]
end

(* ----- execution-kernel microbenches -----

   Whole-workload simulation: [sim/lowered] walks the flat
   structure-of-arrays form of [Psb_machine.Lowered], cached inside the
   compile, so the row prices the cycle loop alone. [lower] prices the
   one-time lowering pass itself, to show it is amortised after a
   handful of simulated cycles. *)
module Lowered_bench = struct
  module Driver = Psb_compiler.Driver
  module Model = Psb_compiler.Model
  module Machine_model = Psb_machine.Machine_model
  module Lowered = Psb_machine.Lowered
  module Suite = Psb_workloads.Suite
  module Dsl = Psb_workloads.Dsl

  let w = lazy (Suite.find "compress")

  let compiled =
    lazy
      (let w = Lazy.force w in
       let _, profile =
         Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs
           ~mem:(w.Dsl.make_mem ())
       in
       Driver.compile ~model:Model.region_pred ~machine:Machine_model.base
         ~profile w.Dsl.program)

  let run ?events () =
    let w = Lazy.force w in
    ignore
      (Driver.run_vliw ?events (Lazy.force compiled) ~regs:w.Dsl.regs
         ~mem:(w.Dsl.make_mem ()))

  let tests () =
    let open Bechamel in
    let t name f = Test.make ~name (Staged.stage f) in
    Test.make_grouped ~name:"lowered"
      [
        t "sim/lowered" run;
        t "lower" (fun () ->
            let c = Lazy.force compiled in
            match c.Driver.pcode with
            | Some code -> ignore (Lowered.compile ~machine:c.Driver.machine code)
            | None -> assert false);
      ]
end

(* ----- events microbenches -----

   The structured event log must be free when absent and cheap when
   attached: [emit] is the raw ring cost (alloc-free, overwrite past
   capacity), and the tick pairs run the same all-Unspec per-cycle state
   with and without a ring attached — the delta is the cost of the
   [?events] option check on the hot path, which the zero-overhead claim
   says is a pointer test. [vliw] is [rob/sim/vliw]'s compress run with
   one preallocated ring attached, cleared before each run: a traced
   run allocates what an untraced one does. *)
module Events_bench = struct
  open Psb_isa
  module Regfile = Psb_machine.Regfile
  module Store_buffer = Psb_machine.Store_buffer
  module Events = Psb_obs.Events

  let ring = lazy (Events.create ~capacity:4096 ())

  let make_rf events =
    let rf =
      Regfile.create ~mode:Regfile.Single ?events ~nregs:Pred_bench.entries ()
    in
    for i = 0 to Pred_bench.entries - 1 do
      match
        Regfile.write_spec rf (Reg.make i) i
          ~pred:(Pred_bench.pred i) ~fault:None
      with
      | `Ok -> ()
      | `Conflict -> assert false
    done;
    rf

  let make_sb events =
    let sb = Store_buffer.create ?events () in
    for i = 0 to Pred_bench.entries - 1 do
      Store_buffer.append sb ~addr:i ~value:i
        ~pred:(Pred_bench.pred i) ~spec:true ~fault:None
    done;
    sb

  let vliw_ring = lazy (Events.create ~capacity:(1 lsl 20) ())
  let rf_plain = lazy (make_rf None)
  let rf_events = lazy (make_rf (Some (Lazy.force ring)))
  let sb_plain = lazy (make_sb None)
  let sb_events = lazy (make_sb (Some (Lazy.force ring)))

  let tests () =
    let open Bechamel in
    let t name f = Test.make ~name (Staged.stage f) in
    let tick_rf rf () =
      Regfile.tick ~dirty:(-1) (Lazy.force rf) (Lazy.force Pred_bench.ccr)
    and tick_sb sb () =
      Store_buffer.tick ~dirty:(-1) (Lazy.force sb) (Lazy.force Pred_bench.ccr)
    in
    Test.make_grouped ~name:"events"
      [
        t "emit" (fun () ->
            Events.emit (Lazy.force ring) ~cycle:0 Events.Issue ~a:1 ~b:0);
        t "rf_tick/no_events" (tick_rf rf_plain);
        t "rf_tick/events" (tick_rf rf_events);
        t "sb_tick/no_events" (tick_sb sb_plain);
        t "sb_tick/events" (tick_sb sb_events);
        t "vliw" (fun () ->
            let ring = Lazy.force vliw_ring in
            Events.clear ring;
            Lowered_bench.run ~events:ring ());
      ]
end

(* ----- rival-backend microbenches -----

   Whole-workload simulation cost of the three backends on the same
   program: the scalar reference interpreter, the out-of-order
   reorder-buffer backend, and the predicating VLIW machine (lowered
   kernel, sharing [Lowered_bench]'s cached compile). The ROB row prices
   the per-cycle dispatch/issue/complete/commit walk — the simulator's
   hot loop — so regressions in the rival model's throughput gate like
   any other kernel. *)
module Rob_bench = struct
  module Rob_sim = Psb_machine.Rob_sim
  module Machine_model = Psb_machine.Machine_model
  module Interp = Psb_isa.Interp
  module Suite = Psb_workloads.Suite
  module Dsl = Psb_workloads.Dsl

  let w = lazy (Suite.find "compress")

  let tests () =
    let open Bechamel in
    let t name f = Test.make ~name (Staged.stage f) in
    Test.make_grouped ~name:"rob"
      [
        t "sim/rob" (fun () ->
            let w = Lazy.force w in
            ignore
              (Rob_sim.run ~model:Machine_model.base ~regs:w.Dsl.regs
                 ~mem:(w.Dsl.make_mem ()) w.Dsl.program));
        t "sim/scalar" (fun () ->
            let w = Lazy.force w in
            ignore
              (Interp.run ~record_trace:false ~regs:w.Dsl.regs
                 ~mem:(w.Dsl.make_mem ()) w.Dsl.program));
        t "sim/vliw" Lowered_bench.run;
      ]
end

(* ----- predecode microbenches -----

   Whole-workload cost of the predecoded flat walk ([Decoded.of_program])
   on both scalar backends, and the one-time decode itself. The decoded
   rows price the per-instruction array walk — the hot loop of every
   profile run and every fuzz trial — so a slow-down gates like any
   other kernel. Traces are off: these rows measure the kernel, not the
   trace cells. *)
module Decoded_bench = struct
  module Rob_sim = Psb_machine.Rob_sim
  module Machine_model = Psb_machine.Machine_model
  module Interp = Psb_isa.Interp
  module Decoded = Psb_isa.Decoded
  module Suite = Psb_workloads.Suite
  module Dsl = Psb_workloads.Dsl

  let w = lazy (Suite.find "compress")
  let decoded = lazy (Decoded.of_program (Lazy.force w).Dsl.program)

  let tests () =
    let open Bechamel in
    let t name f = Test.make ~name (Staged.stage f) in
    Test.make_grouped ~name:"decoded"
      [
        t "interp/decoded" (fun () ->
            let w = Lazy.force w in
            ignore
              (Interp.run ~record_trace:false ~decoded:(Lazy.force decoded)
                 ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()) w.Dsl.program));
        t "rob/decoded" (fun () ->
            let w = Lazy.force w in
            ignore
              (Rob_sim.run ~decoded:(Lazy.force decoded)
                 ~model:Machine_model.base ~regs:w.Dsl.regs
                 ~mem:(w.Dsl.make_mem ()) w.Dsl.program));
        t "decode" (fun () ->
            let w = Lazy.force w in
            ignore (Decoded.of_program w.Dsl.program));
      ]
end

(* ----- trace-driven estimate microbenches -----

   The two per-program costs behind every speedup table: [cycles]
   replays compress's recorded block trace over its region-pred units on
   the base machine (what [Harness.estimated_cycles] does after a cache
   hit), and [profile] is the traced scalar run plus the profile built
   from it ([Driver.profile_of], a harness set-up). The replay decodes
   the program and flattens the units into int tables once per call, so
   its allocation follows the program and its units, not the trace. *)
module Estimate_bench = struct
  module Driver = Psb_compiler.Driver
  module Interp = Psb_isa.Interp
  module Dsl = Psb_workloads.Dsl

  let scalar =
    lazy
      (let w = Lazy.force Lowered_bench.w in
       fst
         (Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs
            ~mem:(w.Dsl.make_mem ())))

  let tests () =
    let open Bechamel in
    let t name f = Test.make ~name (Staged.stage f) in
    Test.make_grouped ~name:"estimate"
      [
        t "cycles" (fun () ->
            let w = Lazy.force Lowered_bench.w in
            ignore
              (Driver.estimate_cycles (Lazy.force Lowered_bench.compiled)
                 w.Dsl.program
                 ~block_trace:(Lazy.force scalar).Interp.block_trace));
        t "profile" (fun () ->
            let w = Lazy.force Lowered_bench.w in
            ignore
              (Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs
                 ~mem:(w.Dsl.make_mem ())));
      ]
end

(* ----- limit-study microbench -----

   The §1 limit study's replay ([Limits.analyze]) of compress's traced
   scalar run, made once, as [estimate] does: what the [limits]
   experiment does per harness entry. The replay walks the decoded
   arrays and allocates per program, not per dynamic op. *)
module Limits_bench = struct
  let tests () =
    let open Bechamel in
    Test.make_grouped ~name:"limits"
      [
        Test.make ~name:"replay"
          (Staged.stage (fun () ->
               ignore
                 (Limits.analyze (Lazy.force Lowered_bench.w)
                    ~scalar:(Lazy.force Estimate_bench.scalar))));
      ]
end

(* ----- compile-path microbenches -----

   The compile work of one differential fuzz trial ([Diff.check]) on 20
   programs of the default generator shape: per program one analysis,
   the four executable models sharing it (region-pred through a fresh
   cache), one cache lookup (a hit) and one cold compile, all
   unverified. The profiles are taken once, outside the timed run.
   [front] times the front end alone on the same programs: per program
   one analysis and the two unit formations a trial's models make
   (region scope, shared by three models, and trace scope). [key] times
   one cache key of the first program. *)
module Compile_bench = struct
  module Driver = Psb_compiler.Driver
  module Model = Psb_compiler.Model
  module Compile_cache = Psb_compiler.Compile_cache
  module Machine_model = Psb_machine.Machine_model
  module Gen = Psb_proptest.Gen
  module Fuzz = Psb_proptest.Fuzz

  let machine = Machine_model.base

  let programs =
    lazy
      (List.init 20 (fun i ->
           let g = Fuzz.gen_trial { Fuzz.default with Fuzz.seed = 1 } i in
           let program = g.Gen.program in
           ( program,
             snd (Driver.profile_of program ~regs:Gen.regs ~mem:(Gen.make_mem g))
           )))

  let executable = List.filter (fun (m : Model.t) -> m.Model.executable) Model.all

  let trial (program, profile) =
    let analysis = Driver.analyze program in
    let cache = Compile_cache.create () in
    let compile ?cache ?analysis model =
      Driver.compile ?cache ?analysis ~verify:false ~model ~machine ~profile
        program
    in
    List.iter
      (fun (model : Model.t) ->
        let cache = if model == Model.region_pred then Some cache else None in
        ignore (compile ?cache ~analysis model))
      executable;
    ignore (compile ~cache ~analysis Model.region_pred);
    ignore (compile Model.region_pred)

  (* the unit-formation params of region-pred and trace-pred on the
     bench machine, as [Driver.compile] derives them *)
  let front_params =
    List.map
      (fun (m : Model.t) ->
        Psb_compiler.Runit.default_params ~scope:m.Model.scope
          ~max_conds:machine.Machine_model.ccr_size
          ~fuse_compare:m.Model.branch_elim ())
      [ Model.region_pred; Model.trace_pred ]

  let front (program, profile) =
    let analysis = Driver.analyze program in
    List.iter
      (fun params ->
        ignore
          (Psb_compiler.Runit.build_all params analysis.Driver.cfg profile
             ~loop_heads:analysis.Driver.loop_heads
             ~entry:program.Psb_isa.Program.entry))
      front_params

  let key () =
    let program, profile = List.hd (Lazy.force programs) in
    Compile_cache.key ~model:Model.region_pred ~machine ~avoid_commit_deps:false
      ~verify:false ~profile program

  let tests () =
    let open Bechamel in
    let t name f = Test.make ~name (Staged.stage f) in
    Test.make_grouped ~name:"compile"
      [
        t "trial" (fun () -> List.iter trial (Lazy.force programs));
        t "front" (fun () -> List.iter front (Lazy.force programs));
        t "key" (fun () -> ignore (key ()));
      ]
end

(* Bechamel timings. Groups: [experiments] times each table/figure as
   [bench/main.exe NAME] runs it, on a fresh harness per run (so no
   compile-cache hit or stored VLIW run of an earlier run stands in for
   work), against a null formatter; [pred_kernel] times the
   per-cycle bitmask predicate evaluation; [events] times the structured
   event log against the machine hot paths; [lowered] times whole-workload
   VLIW simulation and the lowering pass; [rob] times the
   rival reorder-buffer backend against the scalar and VLIW simulators;
   [decoded] times the predecoded scalar form on both scalar backends
   (and the interpreter's tree kernel), plus the decode pass itself;
   [estimate] times the trace-driven cycle estimate and the profile run
   it replays; [limits] times the limit study's replay of a traced
   run; [compile] times a fuzz trial's compiles, its compile front end
   and one cache key. *)
let bench_groups : (string * (unit -> Bechamel.Test.t)) list =
  [
    ( "experiments",
      fun () ->
        let open Bechamel in
        let null_ppf = Format.make_formatter (fun _ _ _ -> ()) ignore in
        Test.make_grouped ~name:"experiments"
          (List.map
             (fun (name, _, f) ->
               Test.make ~name
                 (Staged.stage (fun () -> f (lazy (harness ())) null_ppf)))
             experiments) );
    ("pred_kernel", Pred_bench.tests);
    ("events", Events_bench.tests);
    ("lowered", Lowered_bench.tests);
    ("rob", Rob_bench.tests);
    ("decoded", Decoded_bench.tests);
    ("estimate", Estimate_bench.tests);
    ("limits", Limits_bench.tests);
    ("compile", Compile_bench.tests);
  ]

let bench_usage_error name =
  Format.eprintf "unknown bench group %s; available: %s@." name
    (String.concat " " (List.map fst bench_groups));
  exit 2

(* [(test name, ns/run, minor words/run)] rows of one group. *)
let bench_group name =
  let open Bechamel in
  let mk =
    match List.assoc_opt name bench_groups with
    | Some mk -> mk
    | None -> bench_usage_error name
  in
  let instances = Toolkit.Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances (mk ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let estimate instance n =
    match Analyze.OLS.estimates (Analyze.one ols instance (Hashtbl.find raw n)) with
    | Some [ est ] -> est
    | Some _ | None -> Float.nan
  in
  Hashtbl.fold (fun n _ acc -> n :: acc) raw []
  |> List.sort compare
  |> List.map (fun n ->
         ( n,
           estimate Toolkit.Instance.monotonic_clock n,
           estimate Toolkit.Instance.minor_allocated n ))

(* [(group name, rows)] as a psb-bechamel-v1 document — the shape both
   [bechamel --json] emits and [--baseline] compares against. *)
let bechamel_doc groups =
  Psb_obs.Json.obj
    [
      ("schema", Psb_obs.Json.String "psb-bechamel-v1");
      ( "groups",
        Psb_obs.Json.List
          (List.map
             (fun (name, rows) ->
               Psb_obs.Json.obj
                 [
                   ("name", Psb_obs.Json.String name);
                   ( "results",
                     Psb_obs.Json.List
                       (List.map
                          (fun (n, ns, words) ->
                            Psb_obs.Json.obj
                              [
                                ("name", Psb_obs.Json.String n);
                                ("ns_per_run", Psb_obs.Json.Float ns);
                                ( "minor_words_per_run",
                                  Psb_obs.Json.Float words );
                              ])
                          rows) );
                 ])
             groups) );
    ]

let run_bechamel ~json names =
  let names = if names = [] then List.map fst bench_groups else names in
  List.iter
    (fun n -> if not (List.mem_assoc n bench_groups) then bench_usage_error n)
    names;
  let groups = List.map (fun n -> (n, bench_group n)) names in
  if json then
    print_endline (Psb_obs.Json.to_string (bechamel_doc groups))
  else
    List.iter
      (fun (name, rows) ->
        Format.printf "== %s ==@." name;
        List.iter
          (fun (n, ns, words) ->
            Format.printf "%-40s %14.1f ns/run %10.1f mw/run@." n ns words)
          rows;
        Format.printf "@.")
      groups

(* Regression gate: re-measure exactly the bench groups the baseline
   document names, compare ns/run per benchmark, and exit 1 on any
   slowdown past the threshold (or a vanished benchmark). *)
let run_baseline file =
  let contents =
    try In_channel.with_open_text file In_channel.input_all
    with Sys_error msg ->
      Format.eprintf "bench: cannot read baseline: %s@." msg;
      exit 2
  in
  let baseline =
    match Baseline.of_string contents with
    | Ok d -> d
    | Error msg ->
        Format.eprintf "bench: %s: %s@." file msg;
        exit 2
  in
  let known, unknown =
    List.partition (fun n -> List.mem_assoc n bench_groups) (Baseline.groups baseline)
  in
  if unknown <> [] then
    Format.eprintf "bench: baseline names unknown bench groups: %s@."
      (String.concat " " unknown);
  if known = [] then begin
    Format.eprintf "bench: baseline %s names no runnable bench groups@." file;
    exit 2
  end;
  let current =
    match
      Baseline.of_json (bechamel_doc (List.map (fun n -> (n, bench_group n)) known))
    with
    | Ok d -> d
    | Error msg ->
        Format.eprintf "bench: internal error building current document: %s@." msg;
        exit 2
  in
  let report =
    Baseline.compare_docs ~threshold_pct:!threshold ~baseline ~current
  in
  Format.printf "%a" Baseline.pp report;
  if not (Baseline.ok report) then exit 1

let run_json names =
  let names = if names = [] then Report.experiment_names else names in
  List.iter
    (fun n -> if not (List.mem n Report.experiment_names) then usage_error n)
    names;
  let doc = Report.all ~names ~runtime:true (Lazy.force h) in
  print_endline (Psb_obs.Json.to_string doc)

(* Strip -j N / --jobs N / -jN (setting [jobs]), --baseline FILE and
   --threshold PCT from anywhere in argv. *)
let parse_jobs args =
  let set n =
    match int_of_string_opt n with
    | Some v when v >= 1 -> jobs := v
    | Some _ | None ->
        Format.eprintf "bench: -j expects a positive integer, got %s@." n;
        exit 2
  in
  let rec go acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: [] ->
        Format.eprintf "bench: -j expects an argument@.";
        exit 2
    | ("-j" | "--jobs") :: n :: rest ->
        set n;
        go acc rest
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
        set (String.sub a 2 (String.length a - 2));
        go acc rest
    | "--baseline" :: [] ->
        Format.eprintf "bench: --baseline expects a file@.";
        exit 2
    | "--baseline" :: f :: rest ->
        baseline_file := Some f;
        go acc rest
    | "--threshold" :: [] ->
        Format.eprintf "bench: --threshold expects a percentage@.";
        exit 2
    | "--threshold" :: p :: rest ->
        (match float_of_string_opt p with
        | Some v when v > 0. -> threshold := v
        | Some _ | None ->
            Format.eprintf
              "bench: --threshold expects a positive percentage, got %s@." p;
            exit 2);
        go acc rest
    | a :: rest -> go (a :: acc) rest
  in
  go [] args

let () =
  let args = parse_jobs (List.tl (Array.to_list Sys.argv)) in
  Fun.protect
    ~finally:(fun () ->
      if Lazy.is_val pool then Option.iter Pool.shutdown (Lazy.force pool))
    (fun () ->
      match (!baseline_file, args) with
      | Some f, [] -> run_baseline f
      | Some _, _ ->
          Format.eprintf "bench: --baseline takes no experiment arguments@.";
          exit 2
      | None, args -> (
      match args with
      | [] -> run_all ()
      | "bechamel" :: rest ->
          let json, names =
            match rest with
            | "--json" :: names -> (true, names)
            | names -> (false, names)
          in
          run_bechamel ~json names
      | "--json" :: names -> run_json names
      | names -> List.iter run_one names))
