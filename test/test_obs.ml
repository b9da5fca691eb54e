(* Tests of the observability layer: JSON printer/parser round-trips,
   the metrics registry, the Chrome trace-event sink (golden schema
   test), the cycle-accounting breakdown, and ordering invariants of the
   machine's event stream. *)

open Psb_isa
open Psb_compiler
open Psb_workloads
module Json = Psb_obs.Json
module Metrics = Psb_obs.Metrics
module Events = Psb_obs.Events
module Spec_profile = Psb_obs.Spec_profile
module Trace_event = Psb_obs.Trace_event
module Vliw_sim = Psb_machine.Vliw_sim
module Vliw_trace = Psb_machine.Vliw_trace
module Machine_model = Psb_machine.Machine_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let executable_models =
  List.filter (fun (m : Model.t) -> m.Model.executable) Model.all

let workloads = Suite.all @ Suite.extras

let compile_workload (w : Dsl.t) (model : Model.t) =
  let _, profile =
    Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
  in
  Driver.compile ~model ~machine:Machine_model.base ~profile w.Dsl.program

(* Compile [w] under [model] and run it with the given instrumentation. *)
let run_workload ?events ?metrics (w : Dsl.t) (model : Model.t) =
  Leash.run_vliw ?events ?metrics (compile_workload w model) ~regs:w.Dsl.regs
    ~mem:(w.Dsl.make_mem ())

(* A run recorded into a ring that holds all of it: the result, the ring
   and the run's pcode, which the ring's readers resolve events against.
   [ring], when given, is cleared and reused. *)
let traced ?ring (compiled : Driver.compiled) ~regs ~mem =
  let ring =
    match ring with
    | Some r ->
        Events.clear r;
        r
    | None -> Events.create ~capacity:(1 lsl 20) ()
  in
  let res = Leash.run_vliw ~events:ring compiled ~regs ~mem in
  check_int "the ring held the whole run" 0 (Events.dropped ring);
  (res, ring, Option.get compiled.Driver.pcode)

let traced_workload (w : Dsl.t) model =
  traced (compile_workload w model) ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())

let count_events ring p =
  let n = ref 0 in
  Events.iter ring (fun _ kind a b -> if p kind a b then incr n);
  !n

let is kind kind' _ _ = kind' = kind

(* ---------- JSON ---------- *)

let sample =
  Json.Obj
    [
      ("int", Json.Int 42);
      ("neg", Json.Int (-7));
      ("float", Json.Float 1.5);
      ("string", Json.String "quote \" slash \\ newline \n tab \t");
      ("true", Json.Bool true);
      ("null", Json.Null);
      ( "list",
        Json.List [ Json.Int 1; Json.String "two"; Json.List []; Json.Obj [] ]
      );
      ("nested", Json.Obj [ ("k", Json.Float 0.125) ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun minify ->
      let s = Json.to_string ~minify sample in
      match Json.parse s with
      | Ok v -> check_bool "round-trip" true (Json.equal v sample)
      | Error e -> Alcotest.failf "parse (minify=%b): %s" minify e)
    [ true; false ]

let test_json_parse_basics () =
  let ok s v =
    match Json.parse s with
    | Ok v' -> check_bool s true (Json.equal v v')
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "[1,2.0,-3]" (Json.List [ Json.Int 1; Json.Float 2.0; Json.Int (-3) ]);
  ok "{\"a\":[],\"b\":{}}" (Json.Obj [ ("a", Json.List []); ("b", Json.Obj []) ]);
  ok "\"\\u0041\\u00e9\"" (Json.String "A\xc3\xa9");
  ok "  true " (Json.Bool true);
  ok "1e2" (Json.Float 100.)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "1 2"; "[1] x" ]

let test_json_obj_drops_null () =
  let v = Json.obj [ ("keep", Json.Int 1); ("drop", Json.Null) ] in
  check_bool "null dropped" true (Json.equal v (Json.Obj [ ("keep", Json.Int 1) ]))

let test_json_accessors () =
  check_int "member" 42
    (Option.get (Option.bind (Json.member "int" sample) Json.to_int));
  check_bool "missing" true (Json.member "nope" sample = None);
  check_int "list len" 4 (List.length (Json.to_list (Option.get (Json.member "list" sample))));
  check_bool "int widens" true (Json.to_float (Json.Int 3) = Some 3.)

(* ---------- metrics ---------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests" ~labels:[ ("kind", "a") ] in
  Metrics.inc c;
  Metrics.inc c ~by:4;
  (* find-or-create: same name+labels is the same counter *)
  Metrics.inc (Metrics.counter m "requests" ~labels:[ ("kind", "a") ]);
  check_int "counter" 6 (Metrics.counter_value c);
  let other = Metrics.counter m "requests" ~labels:[ ("kind", "b") ] in
  check_int "distinct labels" 0 (Metrics.counter_value other)

let test_metrics_histograms () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "occ" ~buckets:[ 1.; 2.; 4. ] in
  List.iter (Metrics.observe h) [ 0.; 1.; 3.; 100. ];
  check_int "count" 4 (Metrics.histogram_count h);
  check_bool "sum" true (Metrics.histogram_sum h = 104.);
  check_bool "mean" true (Metrics.histogram_mean h = 26.)

let test_metrics_json_deterministic () =
  let build () =
    let m = Metrics.create () in
    Metrics.inc (Metrics.counter m "b");
    Metrics.inc (Metrics.counter m "a" ~labels:[ ("x", "1") ]) ~by:2;
    Metrics.observe (Metrics.histogram m "h") 3.;
    m
  in
  let s1 = Json.to_string (Metrics.to_json (build ())) in
  let s2 = Json.to_string (Metrics.to_json (build ())) in
  check_bool "deterministic dump" true (s1 = s2);
  match Json.parse s1 with
  | Error e -> Alcotest.failf "metrics json: %s" e
  | Ok v ->
      check_int "counters" 2
        (List.length (Json.to_list (Option.get (Json.member "counters" v))));
      check_int "histograms" 1
        (List.length (Json.to_list (Option.get (Json.member "histograms" v))))

(* ---------- golden trace schema ---------- *)

(* Round-trip a real machine trace through the parser and check the
   Chrome trace-event schema: every event carries name/ph/ts/pid/tid,
   spans carry dur, and the metadata block records the run. *)
let test_trace_golden () =
  let model = Model.region_pred in
  let w = Suite.find "fib" in
  let res, ring, code = traced_workload w model in
  let sink = Vliw_trace.of_events ~model:Machine_model.base code ring in
  let doc = Vliw_trace.to_json ~result:res sink in
  let s = Json.to_string doc in
  match Json.parse s with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok v ->
      check_bool "round-trip" true (Json.equal v doc);
      let events = Json.to_list (Option.get (Json.member "traceEvents" v)) in
      check_bool "has events" true (List.length events > 100);
      List.iter
        (fun e ->
          let field n = Option.get (Json.member n e) in
          check_bool "name" true (Json.to_str (field "name") <> None);
          let ph = Option.get (Json.to_str (field "ph")) in
          check_bool "ph" true (List.mem ph [ "M"; "X"; "i"; "C" ]);
          check_bool "pid" true (Json.to_int (field "pid") = Some 1);
          check_bool "tid" true (Json.to_int (field "tid") <> None);
          if ph <> "M" then
            check_bool "ts" true (Option.get (Json.to_int (field "ts")) >= 0);
          if ph = "X" then
            check_bool "dur" true (Option.get (Json.to_int (field "dur")) >= 1))
        events;
      let meta = Option.get (Json.member "metadata" v) in
      check_int "cycles metadata" res.Vliw_sim.cycles
        (Option.get (Json.to_int (Option.get (Json.member "cycles" meta))));
      let bd = Option.get (Json.member "cycle_breakdown" meta) in
      let total =
        List.fold_left
          (fun acc (name, _) ->
            acc
            + Option.get (Json.to_int (Option.get (Json.member name bd))))
          0
          (Vliw_sim.breakdown_fields res.Vliw_sim.breakdown)
      in
      check_int "breakdown metadata sums to cycles" res.Vliw_sim.cycles total

(* ---------- cycle accounting ---------- *)

(* The tentpole invariant: every simulated cycle lands in exactly one
   category, for every workload under every executable model. *)
let test_accounting_sums () =
  List.iter
    (fun (w : Dsl.t) ->
      List.iter
        (fun (model : Model.t) ->
          let res = run_workload w model in
          let bd = res.Vliw_sim.breakdown in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s breakdown sums to cycles" w.Dsl.name
               model.Model.name)
            res.Vliw_sim.cycles
            (Vliw_sim.breakdown_total bd);
          List.iter
            (fun (cat, v) ->
              check_bool
                (Printf.sprintf "%s/%s %s >= 0" w.Dsl.name model.Model.name cat)
                true (v >= 0))
            (Vliw_sim.breakdown_fields bd))
        executable_models)
    workloads

let test_accounting_recovery_cycles () =
  (* Workloads with no recoveries must charge nothing to recovery. *)
  List.iter
    (fun (w : Dsl.t) ->
      let res = run_workload w Model.region_pred in
      if res.Vliw_sim.stats.Vliw_sim.recoveries = 0 then
        check_int
          (w.Dsl.name ^ " no recovery cycles")
          0 res.Vliw_sim.breakdown.Vliw_sim.bd_recovery)
    workloads

(* ---------- event-stream invariants ---------- *)

(* A region exit closes the region: invalidation happens at the exit, so
   no buffered-state resolution (commit, or squash of a predicate that
   specified false) may appear in the stream until the next bundle
   issues in the new region. *)
let test_no_resolution_after_exit () =
  List.iter
    (fun (w : Dsl.t) ->
      List.iter
        (fun (model : Model.t) ->
          let _, ring, _ = traced_workload w model in
          let after_exit = ref false in
          let resolved cycle =
            if !after_exit then
              Alcotest.failf
                "%s/%s: state resolution at cycle %d between a region exit \
                 and the next bundle"
                w.Dsl.name model.Model.name cycle
          in
          Events.iter ring (fun cycle kind _ b ->
              match kind with
              | Events.Region_exit -> after_exit := true
              | Events.Issue -> after_exit := false
              | Events.Shadow_commit | Events.Sb_commit -> resolved cycle
              | (Events.Shadow_squash | Events.Sb_squash) when b = 0 ->
                  resolved cycle
              | _ -> ()))
        executable_models)
    workloads

let test_recovery_done_count () =
  List.iter
    (fun (w : Dsl.t) ->
      List.iter
        (fun (model : Model.t) ->
          let res, ring, _ = traced_workload w model in
          check_int
            (Printf.sprintf "%s/%s recovery episodes" w.Dsl.name
               model.Model.name)
            res.Vliw_sim.stats.Vliw_sim.recoveries
            (count_events ring (is Events.Recovery_end)))
        executable_models)
    workloads

(* Cycle numbers in the event stream never decrease, and no event is
   stamped past the final cycle count. *)
let test_event_cycles_monotone () =
  List.iter
    (fun (w : Dsl.t) ->
      let res, ring, _ = traced_workload w Model.region_pred in
      let last = ref 0 in
      Events.iter ring (fun cycle _ _ _ ->
          check_bool (w.Dsl.name ^ " monotone") true (cycle >= !last);
          last := cycle);
      check_bool (w.Dsl.name ^ " bounded") true (!last <= res.Vliw_sim.cycles))
    workloads

(* A run that actually recovers: the §3.5 demand-paging scenario from
   examples/exception_recovery.ml, where region-pred recovers 6 times
   in 101 cycles. *)
let recovering =
  lazy
    (let open Psb_workloads.Dsl in
     let stride = 70 and iters = 8 in
     let program =
       Program.make ~entry:(lbl "entry")
         [
           block "entry" [ mov 1 (i 0); mov 2 (i 0) ] (jmp "head");
           block "head"
             [
               add 5 (r 20) (r 1);
               load 6 5 0;
               mul 6 (r 6) (i 3);
               sub 6 (r 6) (i 1);
               cmp 4 Opcode.Gt (r 6) (i 0);
             ]
             (br 4 "body" "done");
           block "body"
             [
               mul 7 (r 1) (i stride);
               add 7 (r 7) (r 21);
               load 3 7 0;
               add 2 (r 2) (r 3);
               add 1 (r 1) (i 1);
             ]
             (jmp "head");
           block "done" [ out (r 2) ] halt;
         ]
     in
     let make_mem () =
       let mem = Memory.create_demand ~size:2048 ~unmapped:(320, 1024) in
       for k = 0 to iters - 1 do
         Memory.poke mem k (if k = iters - 1 then 0 else 1)
       done;
       for k = 0 to iters - 1 do
         let a = 256 + (k * stride) in
         if Memory.probe mem a = None then Memory.poke mem a (k + 1)
       done;
       mem
     in
     let regs = [ (Reg.make 20, 0); (Reg.make 21, 256) ] in
     let _, profile = Driver.profile_of program ~regs ~mem:(make_mem ()) in
     let compiled =
       Driver.compile ~model:Model.region_pred ~machine:Machine_model.base
         ~profile program
     in
     traced compiled ~regs ~mem:(make_mem ()))

let recovering_trace () =
  let res, ring, code = Lazy.force recovering in
  let sink = Vliw_trace.of_events ~model:Machine_model.base code ring in
  Vliw_trace.to_json ~result:res sink

(* Under recovery the accounting must still sum, must charge the
   recovery category, and the event stream must close every episode. *)
let test_accounting_under_recovery () =
  let res, ring, _ = Lazy.force recovering in
  check_bool "recovers" true (res.Vliw_sim.stats.Vliw_sim.recoveries > 0);
  (* the trace renders each episode as a span on the recovery track *)
  (match Json.parse (Json.to_string (recovering_trace ())) with
  | Error e -> Alcotest.failf "recovery trace does not parse: %s" e
  | Ok v ->
      let recovery_spans =
        List.filter
          (fun e ->
            Option.bind (Json.member "name" e) Json.to_str = Some "recovery"
            && Option.bind (Json.member "ph" e) Json.to_str = Some "X")
          (Json.to_list (Option.get (Json.member "traceEvents" v)))
      in
      check_int "recovery spans" res.Vliw_sim.stats.Vliw_sim.recoveries
        (List.length recovery_spans));
  check_bool "recovery cycles charged" true
    (res.Vliw_sim.breakdown.Vliw_sim.bd_recovery > 0);
  check_int "sums under recovery" res.Vliw_sim.cycles
    (Vliw_sim.breakdown_total res.Vliw_sim.breakdown);
  check_int "every episode closes"
    res.Vliw_sim.stats.Vliw_sim.recoveries
    (count_events ring (is Events.Recovery_end));
  check_int "every episode opens"
    res.Vliw_sim.stats.Vliw_sim.recoveries
    (count_events ring (is Events.Recovery_start))

(* The recovering run's trace document, byte for byte: no suite run
   recovers, so this is the pin on the recovery track. *)
let test_recovery_trace_pinned () =
  Alcotest.(check string)
    "trace digest" "b373e40a453af9b94838d17a355b99d2"
    (Digest.to_hex (Digest.string (Json.to_string (recovering_trace ()))))

(* [psb trace] writes the compact form: it must parse to the same
   document as the pretty one the pin above hashes. *)
let test_recovery_trace_minified () =
  let doc = recovering_trace () in
  match
    ( Json.parse (Json.to_string ~minify:true doc),
      Json.parse (Json.to_string doc) )
  with
  | Ok compact, Ok pretty ->
      check_bool "minified parses to the pretty document" true
        (Json.equal compact pretty)
  | Error e, _ | _, Error e -> Alcotest.failf "trace does not parse: %s" e

(* ---------- the ring against the result record ---------- *)

(* Every issued bundle, executed operation, stall and recovery episode
   is one ring event. *)
let check_ring_counts name (res : Vliw_sim.result) ring =
  let s = res.Vliw_sim.stats in
  let count = count_events ring in
  let check what = check_int (Printf.sprintf "%s %s" name what) in
  check "op issues" s.Vliw_sim.dyn_ops (count (is Events.Op_issue));
  check "speculative op issues" s.Vliw_sim.spec_ops
    (count (fun k _ b -> k = Events.Op_issue && b land 1 = 1));
  check "bundle issues" s.Vliw_sim.dyn_bundles (count (is Events.Issue));
  check "shadow-conflict stalls" s.Vliw_sim.conflict_stall_cycles
    (count (fun k a _ -> k = Events.Stall && a = 0));
  check "store-buffer stalls" s.Vliw_sim.sb_stall_cycles
    (count (fun k a _ -> k = Events.Stall && a = 1));
  if res.Vliw_sim.outcome = Interp.Halted then begin
    check "recovery starts" s.Vliw_sim.recoveries
      (count (is Events.Recovery_start));
    check "recovery ends" s.Vliw_sim.recoveries (count (is Events.Recovery_end))
  end

let test_ring_matches_stats () =
  List.iter
    (fun (w : Dsl.t) ->
      List.iter
        (fun (model : Model.t) ->
          let res, ring, _ = traced_workload w model in
          check_ring_counts (w.Dsl.name ^ "/" ^ model.Model.name) res ring)
        executable_models)
    workloads;
  let res, ring, _ = Lazy.force recovering in
  check_bool "the recovering run halts" true
    (res.Vliw_sim.outcome = Interp.Halted);
  check_ring_counts "recovering" res ring

(* The trace's cumulative commit counter ends at the machine's commit
   count under both shadow-storage models: the ring carries one event
   per committed register version or store. *)
let last_spec_commits doc =
  List.fold_left
    (fun acc e ->
      if Option.bind (Json.member "name" e) Json.to_str = Some "spec-commits"
      then
        Option.get
          (Option.bind (Json.member "args" e) (fun args ->
               Option.bind (Json.member "value" args) Json.to_int))
      else acc)
    0
    (Json.to_list (Option.get (Json.member "traceEvents" doc)))

let check_commit_counter ?ring name ~profile program ~regs ~mem =
  List.iter
    (fun (machine : Machine_model.t) ->
      let compiled =
        Driver.compile ~model:Model.region_pred ~machine ~profile program
      in
      let res, ring, code = traced ?ring compiled ~regs ~mem:(mem ()) in
      let sink = Vliw_trace.of_events ~model:machine code ring in
      check_int
        (Printf.sprintf "%s (single shadow %b) spec-commits" name
           (machine.shadow = Psb_machine.Regfile.Single))
        res.Vliw_sim.stats.Vliw_sim.commits
        (last_spec_commits (Vliw_trace.to_json sink)))
    [
      Machine_model.base;
      { Machine_model.base with shadow = Psb_machine.Regfile.Infinite };
    ]

let test_commit_counter () =
  List.iter
    (fun (w : Dsl.t) ->
      let _, profile =
        Driver.profile_of w.Dsl.program ~regs:w.Dsl.regs
          ~mem:(w.Dsl.make_mem ())
      in
      check_commit_counter w.Dsl.name ~profile w.Dsl.program ~regs:w.Dsl.regs
        ~mem:w.Dsl.make_mem)
    Suite.all;
  let module Gen = Psb_proptest.Gen in
  let rng = Random.State.make [| 22 |] in
  let ring = Events.create () in
  for i = 1 to 300 do
    let g = Gen.gen Gen.default_shape rng in
    let _, profile =
      Driver.profile_of g.Gen.program ~regs:Gen.regs ~mem:(Gen.make_mem g)
    in
    check_commit_counter ~ring
      (Printf.sprintf "generated #%d" i)
      ~profile g.Gen.program ~regs:Gen.regs
      ~mem:(fun () -> Gen.make_mem g)
  done

(* ---------- structured event ring ---------- *)

let test_events_ring () =
  let e = Events.create ~capacity:4 () in
  check_int "capacity" 4 (Events.capacity e);
  Events.emit e ~cycle:0 Events.Issue ~a:1 ~b:0;
  Events.emit e ~cycle:1 Events.Issue ~a:2 ~b:0;
  Events.emit e ~cycle:2 Events.Issue ~a:3 ~b:0;
  check_int "length" 3 (Events.length e);
  check_int "total" 3 (Events.total e);
  check_int "dropped" 0 (Events.dropped e);
  (* two more wrap the ring: the two oldest are overwritten *)
  Events.emit e ~cycle:3 Events.Sb_append ~a:4 ~b:1;
  Events.emit e ~cycle:4 Events.Sb_append ~a:5 ~b:0;
  check_int "length at cap" 4 (Events.length e);
  check_int "total after wrap" 5 (Events.total e);
  check_int "dropped after wrap" 1 (Events.dropped e);
  let got = ref [] in
  Events.iter e (fun cycle kind a b -> got := (cycle, kind, a, b) :: !got);
  check_bool "iter oldest first" true
    (List.rev !got
    = [
        (1, Events.Issue, 2, 0);
        (2, Events.Issue, 3, 0);
        (3, Events.Sb_append, 4, 1);
        (4, Events.Sb_append, 5, 0);
      ]);
  Events.clear e;
  check_int "cleared length" 0 (Events.length e);
  check_int "cleared total" 0 (Events.total e);
  check_int "cleared dropped" 0 (Events.dropped e)

let test_events_intern () =
  let e = Events.create ~capacity:8 () in
  let a = Events.intern e "loop" in
  let b = Events.intern e "done" in
  check_int "dense ids" 0 a;
  check_int "dense ids 2" 1 b;
  check_int "find not create" a (Events.intern e "loop");
  check_bool "name" true (Events.name e a = "loop");
  check_bool "unknown id" true (Events.name e 7 = "?7");
  check_bool "halt id" true (Events.name e (-1) = "?-1");
  Events.clear e;
  check_bool "names survive clear" true (Events.name e b = "done")

let test_events_json () =
  let e = Events.create ~capacity:8 () in
  ignore (Events.intern e "entry");
  Events.emit e ~cycle:0 Events.Region_enter ~a:0 ~b:0;
  Events.emit e ~cycle:5 Events.Shadow_commit ~a:3 ~b:42;
  let s = Json.to_string (Events.to_json e) in
  match Json.parse s with
  | Error err -> Alcotest.failf "events json: %s" err
  | Ok v ->
      let field n = Option.get (Json.member n v) in
      check_int "total" 2 (Option.get (Json.to_int (field "total")));
      check_int "dropped" 0 (Option.get (Json.to_int (field "dropped")));
      check_int "events" 2 (List.length (Json.to_list (field "events")));
      let first = List.hd (Json.to_list (field "events")) in
      check_bool "kind name" true
        (Option.bind (Json.member "kind" first) Json.to_str
        = Some "region_enter")

(* The zero-overhead claim, allocation half: emitting into the ring and
   ticking the machine structures with a ring attached must not allocate
   on the minor heap. The tolerance absorbs the boxed floats that
   [Gc.minor_words] itself returns. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_events_emit_no_alloc () =
  let e = Events.create ~capacity:1024 () in
  (* warm up: fill and wrap once so the steady state is measured *)
  for i = 0 to 2047 do
    Events.emit e ~cycle:i Events.Issue ~a:i ~b:0
  done;
  let words =
    minor_words_of (fun () ->
        for i = 0 to 99_999 do
          Events.emit e ~cycle:i Events.Shadow_write ~a:i ~b:i
        done)
  in
  check_bool
    (Printf.sprintf "emit allocates nothing (%.0f words / 100k emits)" words)
    true (words < 256.)

(* Attaching a ring to the per-cycle tick paths must add zero minor-heap
   allocation: measured as a delta between identical state with and
   without [?events]. Both ticks are additionally absolute: they
   allocate nothing at all. *)
let test_tick_no_alloc_with_events () =
  let module Regfile = Psb_machine.Regfile in
  let module Store_buffer = Psb_machine.Store_buffer in
  let module Ccr = Psb_machine.Ccr in
  let entries = 16 in
  (* all predicates stay Unspec so no version ever resolves and the
     timed state survives arbitrarily many ticks *)
  let pred i =
    Pred.of_list
      [ (Cond.make (i mod 4), true); (Cond.make (4 + (i mod 4)), i mod 2 = 0) ]
  in
  let ccr = Ccr.create ~width:8 in
  let ring = Events.create ~capacity:1024 () in
  let make_rf events =
    let rf = Regfile.create ~mode:Regfile.Single ?events ~nregs:entries () in
    for i = 0 to entries - 1 do
      match
        Regfile.write_spec rf (Reg.make i) i ~pred:(pred i) ~fault:None
      with
      | `Ok -> ()
      | `Conflict -> assert false
    done;
    rf
  in
  let make_sb events =
    let sb = Store_buffer.create ?events () in
    for i = 0 to entries - 1 do
      Store_buffer.append sb ~addr:i ~value:i ~pred:(pred i) ~spec:true
        ~fault:None
    done;
    sb
  in
  let rf_plain = make_rf None and rf_events = make_rf (Some ring) in
  let sb_plain = make_sb None and sb_events = make_sb (Some ring) in
  let measure f =
    ignore (f ());
    minor_words_of (fun () ->
        for _ = 1 to 10_000 do
          ignore (f ())
        done)
  in
  let rf0 = measure (fun () -> Regfile.tick ~dirty:(-1) rf_plain ccr) in
  let rf1 = measure (fun () -> Regfile.tick ~dirty:(-1) rf_events ccr) in
  let sb0 = measure (fun () -> Store_buffer.tick ~dirty:(-1) sb_plain ccr) in
  let sb1 = measure (fun () -> Store_buffer.tick ~dirty:(-1) sb_events ccr) in
  check_bool
    (Printf.sprintf "rf tick allocates nothing (%.0f words / 10k)" rf1)
    true (rf1 < 256.);
  check_bool
    (Printf.sprintf "events add nothing to rf tick (%+.0f words / 10k)"
       (rf1 -. rf0))
    true
    (rf1 -. rf0 < 256.);
  check_bool
    (Printf.sprintf "sb tick allocates nothing (%.0f words / 10k)" sb1)
    true (sb1 < 256.);
  check_bool
    (Printf.sprintf "events add nothing to sb tick (%+.0f words / 10k)"
       (sb1 -. sb0))
    true
    (sb1 -. sb0 < 256.)

(* ---------- speculation scorecards ---------- *)

(* The profiler's reconciliation guarantees, for every workload under
   every executable model: region residencies telescope to the machine's
   cycle count, useful/wasted issue cycles match the machine's own
   accounting, and buffered-state commits match the commit counter. *)
let test_spec_profile_reconciles () =
  List.iter
    (fun (w : Dsl.t) ->
      List.iter
        (fun (model : Model.t) ->
          let events = Events.create ~capacity:(1 lsl 20) () in
          let res = run_workload ~events w model in
          let prof =
            Spec_profile.of_events ~total_cycles:res.Vliw_sim.cycles events
          in
          let ctx fmt =
            Printf.sprintf ("%s/%s " ^^ fmt) w.Dsl.name model.Model.name
          in
          check_int (ctx "dropped") 0 (Spec_profile.dropped prof);
          check_bool (ctx "reconciles") true (Spec_profile.reconciles prof);
          check_int (ctx "attributed cycles") res.Vliw_sim.cycles
            (Spec_profile.attributed_cycles prof);
          let sum f =
            List.fold_left
              (fun acc c -> acc + f c)
              0 (Spec_profile.cards prof)
          in
          check_int (ctx "useful")
            res.Vliw_sim.breakdown.Vliw_sim.bd_useful
            (sum (fun c -> c.Spec_profile.useful));
          check_int (ctx "wasted")
            res.Vliw_sim.breakdown.Vliw_sim.bd_squashed
            (sum (fun c -> c.Spec_profile.wasted));
          check_int (ctx "commits") res.Vliw_sim.stats.Vliw_sim.commits
            (Spec_profile.commit_total prof);
          List.iter
            (fun (c : Spec_profile.card) ->
              let r = Spec_profile.squash_rate c in
              check_bool (ctx "squash rate in [0,1]") true
                (r >= 0. && r <= 1.))
            (Spec_profile.cards prof))
        executable_models)
    workloads

(* Reconciliation must survive exception recovery: the re-executed
   cycles belong to the region that faulted, and the deferred/raised
   fault events appear on its card. *)
let test_spec_profile_recovery () =
  let res, events, _ = Lazy.force recovering in
  check_bool "recovers" true (res.Vliw_sim.stats.Vliw_sim.recoveries > 0);
  let prof = Spec_profile.of_events ~total_cycles:res.Vliw_sim.cycles events in
  check_bool "reconciles under recovery" true (Spec_profile.reconciles prof);
  let sum f =
    List.fold_left (fun acc c -> acc + f c) 0 (Spec_profile.cards prof)
  in
  check_int "raised faults = recovery episodes"
    res.Vliw_sim.stats.Vliw_sim.recoveries
    (sum (fun c -> c.Spec_profile.faults_raised));
  check_bool "faults deferred first" true
    (sum (fun c -> c.Spec_profile.faults_deferred) > 0);
  check_int "commits under recovery" res.Vliw_sim.stats.Vliw_sim.commits
    (Spec_profile.commit_total prof)

(* A ring too small for the run voids reconciliation instead of lying. *)
let test_spec_profile_truncated () =
  let w = Suite.find "li" in
  let events = Events.create ~capacity:64 () in
  let res = run_workload ~events w Model.region_pred in
  let prof = Spec_profile.of_events ~total_cycles:res.Vliw_sim.cycles events in
  check_bool "dropped events" true (Spec_profile.dropped prof > 0);
  check_bool "does not claim reconciliation" true
    (not (Spec_profile.reconciles prof))

(* ---------- histogram quantiles ---------- *)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "q" ~buckets:[ 1.; 2.; 4.; 8. ] in
  check_bool "empty" true (Metrics.histogram_quantile h 0.5 = None);
  List.iter (fun v -> Metrics.observe h (float_of_int v)) [ 1; 2; 3; 4; 5; 6 ];
  let get q = Option.get (Metrics.histogram_quantile h q) in
  check_bool "p0 is min" true (get 0. = 1.);
  check_bool "p100 is max" true (get 1. = 6.);
  check_bool "clamped below" true (get (-0.5) = 1.);
  check_bool "clamped above" true (get 2. = 6.);
  let p50 = get 0.5 and p90 = get 0.9 and p99 = get 0.99 in
  check_bool "p50 in range" true (p50 >= 1. && p50 <= 6.);
  check_bool "monotone" true (p50 <= p90 && p90 <= p99);
  (* a single observation pins every quantile *)
  let one = Metrics.histogram m "one" in
  Metrics.observe one 5.;
  check_bool "single obs" true
    (Metrics.histogram_quantile one 0.5 = Some 5.
    && Metrics.histogram_quantile one 0.99 = Some 5.);
  (* values past the last bound live in the +inf bucket: quantiles
     degrade to the observed max, never to infinity *)
  let inf = Metrics.histogram m "inf" ~buckets:[ 1. ] in
  List.iter (Metrics.observe inf) [ 100.; 200. ];
  check_bool "inf bucket degrades to max" true
    (Metrics.histogram_quantile inf 0.9 = Some 200.)

let test_histogram_buckets_conflict () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "occ" ~buckets:[ 1.; 2.; 4. ] in
  Metrics.observe h 3.;
  (* re-passing the original layout (any order, duplicates collapsed)
     and omitting buckets both find the same histogram *)
  check_bool "same layout ok" true
    (Metrics.histogram m "occ" ~buckets:[ 4.; 1.; 2.; 2. ] == h);
  check_bool "no buckets ok" true (Metrics.histogram m "occ" == h);
  check_bool "raises on conflicting buckets" true
    (try
       ignore (Metrics.histogram m "occ" ~buckets:[ 1.; 2.; 8. ]);
       false
     with Invalid_argument _ -> true);
  (* different labels are a different histogram: no conflict *)
  ignore (Metrics.histogram m "occ" ~labels:[ ("k", "v") ] ~buckets:[ 3. ])

(* ---------- trace-event escaping and field order ---------- *)

let test_trace_event_escaping () =
  let sink = Trace_event.create ~process_name:"esc \"proc\"" () in
  let tr = Trace_event.track sink "tr\tack" in
  let names =
    [
      "quote \" backslash \\";
      "control \x01\x02\x1f chars";
      "newline \n tab \t cr \r";
      "non-ASCII caf\xc3\xa9 \xe2\x86\x92";
    ]
  in
  List.iteri
    (fun idx n -> Trace_event.instant sink tr ~name:n ~ts:idx ())
    names;
  let doc = Trace_event.to_json sink () in
  let s = Json.to_string ~minify:true doc in
  match Json.parse s with
  | Error e -> Alcotest.failf "escaped trace does not parse: %s" e
  | Ok v ->
      check_bool "round-trip" true (Json.equal v doc);
      let events = Json.to_list (Option.get (Json.member "traceEvents" v)) in
      let instant_names =
        List.filter_map
          (fun e ->
            if Option.bind (Json.member "ph" e) Json.to_str = Some "i" then
              Option.bind (Json.member "name" e) Json.to_str
            else None)
          events
      in
      check_bool "names survive escaping" true (instant_names = names)

let test_trace_event_field_order () =
  let sink = Trace_event.create () in
  let tr = Trace_event.track sink "t" in
  Trace_event.span sink tr ~name:"s" ~ts:0 ~dur:2 ();
  Trace_event.instant sink tr ~name:"i" ~ts:1 ();
  Trace_event.counter sink ~name:"c" ~ts:2 ~value:3;
  let doc1 = Json.to_string (Trace_event.to_json sink ()) in
  let doc2 = Json.to_string (Trace_event.to_json sink ()) in
  check_bool "serialisation deterministic" true (doc1 = doc2);
  let events =
    Json.to_list (Option.get (Json.member "traceEvents" (Trace_event.to_json sink ())))
  in
  List.iter
    (fun e ->
      match e with
      | Json.Obj fields ->
          let keys = List.map fst fields in
          let expect =
            (* metadata records ("M") carry no timestamp *)
            if Option.bind (Json.member "ph" e) Json.to_str = Some "M" then
              [ "name"; "ph"; "pid"; "tid" ]
            else [ "name"; "ph"; "ts"; "pid"; "tid" ]
          in
          let rec prefix = function
            | [], _ -> true
            | e :: es, k :: ks when e = k -> prefix (es, ks)
            | _ -> false
          in
          check_bool
            (Printf.sprintf "deterministic field order (got %s)"
               (String.concat "," keys))
            true
            (prefix (expect, keys))
      | _ -> Alcotest.fail "trace event is not an object")
    events

(* ---------- metrics integration ---------- *)

let test_vliw_metrics_agree () =
  let w = Suite.find "fib" in
  let metrics = Metrics.create () in
  let res = run_workload ~metrics w Model.region_pred in
  let counter name =
    Metrics.counter_value (Metrics.counter metrics name)
  in
  check_int "cycles counter" res.Vliw_sim.cycles (counter "vliw_cycles_total");
  check_int "bundles counter" res.Vliw_sim.stats.Vliw_sim.dyn_bundles
    (counter "vliw_dyn_bundles");
  let by_cat =
    List.fold_left
      (fun acc (cat, _) ->
        acc
        + Metrics.counter_value
            (Metrics.counter metrics "vliw_cycles"
               ~labels:[ ("category", cat) ]))
      0
      (Vliw_sim.breakdown_fields res.Vliw_sim.breakdown)
  in
  check_int "per-category counters sum to cycles" res.Vliw_sim.cycles by_cat

let test_scalar_fib_equivalence () =
  let w = Suite.find "fib" in
  let scalar =
    Psb_machine.Scalar_sim.run ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
      w.Dsl.program
  in
  List.iter
    (fun (model : Model.t) ->
      let res = run_workload w model in
      check_bool
        (Printf.sprintf "fib output agrees under %s" model.Model.name)
        true
        (res.Vliw_sim.output = scalar.Interp.output))
    executable_models

(* The scalar machine's counters as [psb profile] prints them: per-class
   operation counts, memory accesses, cycles and instructions. The
   generated programs trap often, so runs that stop inside a block are
   counted too. *)
let test_scalar_metrics_pinned () =
  let module Gen = Psb_proptest.Gen in
  let generated =
    List.init 100 (fun i ->
        Gen.to_dsl ~name:(Printf.sprintf "gen%d" i)
          (Gen.gen
             { Gen.default_shape with Gen.fault_prob = 0.3 }
             (Random.State.make [| 0x5ca1; 3; i |])))
  in
  let dump (w : Dsl.t) =
    let metrics = Metrics.create () in
    ignore
      (Psb_machine.Scalar_sim.run ~metrics ~regs:w.Dsl.regs
         ~mem:(w.Dsl.make_mem ()) w.Dsl.program);
    Format.asprintf "%s@.%a" w.Dsl.name Metrics.pp metrics
  in
  let text = String.concat "" (List.map dump (workloads @ generated)) in
  Alcotest.(check string) "digest of the scalar counters"
    "168eaf1c5442ea578a656b5aa61df22f"
    (Digest.to_hex (Digest.string text))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "obj drops null" `Quick test_json_obj_drops_null;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histograms" `Quick test_metrics_histograms;
          Alcotest.test_case "json deterministic" `Quick
            test_metrics_json_deterministic;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "buckets conflict raises" `Quick
            test_histogram_buckets_conflict;
        ] );
      ( "trace",
        [
          Alcotest.test_case "golden schema" `Quick test_trace_golden;
          Alcotest.test_case "string escaping" `Quick
            test_trace_event_escaping;
          Alcotest.test_case "field order" `Quick
            test_trace_event_field_order;
        ] );
      ( "event ring",
        [
          Alcotest.test_case "ring semantics" `Quick test_events_ring;
          Alcotest.test_case "intern table" `Quick test_events_intern;
          Alcotest.test_case "json" `Quick test_events_json;
          Alcotest.test_case "emit allocation-free" `Quick
            test_events_emit_no_alloc;
          Alcotest.test_case "ticks allocation-free" `Quick
            test_tick_no_alloc_with_events;
        ] );
      ( "speculation profile",
        [
          Alcotest.test_case "reconciles everywhere" `Slow
            test_spec_profile_reconciles;
          Alcotest.test_case "reconciles under recovery" `Quick
            test_spec_profile_recovery;
          Alcotest.test_case "truncation voids reconciliation" `Quick
            test_spec_profile_truncated;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "sums to cycles" `Slow test_accounting_sums;
          Alcotest.test_case "recovery zero" `Quick
            test_accounting_recovery_cycles;
          Alcotest.test_case "sums under recovery" `Quick
            test_accounting_under_recovery;
          Alcotest.test_case "recovering trace pinned" `Quick
            test_recovery_trace_pinned;
          Alcotest.test_case "minified trace parses alike" `Quick
            test_recovery_trace_minified;
        ] );
      ( "events",
        [
          Alcotest.test_case "no resolution after exit" `Slow
            test_no_resolution_after_exit;
          Alcotest.test_case "recovery-done count" `Slow
            test_recovery_done_count;
          Alcotest.test_case "cycles monotone" `Quick
            test_event_cycles_monotone;
          Alcotest.test_case "ring matches the result record" `Slow
            test_ring_matches_stats;
          Alcotest.test_case "trace commit counter ends at stats.commits"
            `Slow test_commit_counter;
        ] );
      ( "integration",
        [
          Alcotest.test_case "vliw metrics agree" `Quick
            test_vliw_metrics_agree;
          Alcotest.test_case "fib scalar equivalence" `Quick
            test_scalar_fib_equivalence;
          Alcotest.test_case "scalar counters pinned" `Quick
            test_scalar_metrics_pinned;
        ] );
    ]
