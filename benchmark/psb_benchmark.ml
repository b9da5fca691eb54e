(* The repository benchmark (see README.md and BENCHMARK.json).

     dune exec ./benchmark/psb_benchmark.exe -- \
       --workload fuzz-campaign --seed 1 --seconds 30 --trace 0

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is a separate run that records the per-layer ledger and writes it as
   Chrome trace-event JSON to _benchmark/<workload>-seed<seed>.trace.json.
   The last line of standard output is the result, one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

   --smoke FILE runs every workload at --quick size, timed and traced,
   and checks the output against the metric list in FILE (BENCHMARK.json);
   it is the benchmark's [dune runtest] rule. *)

module Json = Psb_obs.Json

let workloads =
  [
    ("paper-regen", (Paper_regen.timed, Paper_regen.traced));
    ("fuzz-campaign", (Fuzz_campaign.timed, Fuzz_campaign.traced));
    ("sim-long", (Sim_long.timed, Sim_long.traced));
  ]

(* Each of these selects a reference kernel or plants a miscompile, so a
   measurement under it would not measure the default program. They are
   read by name, not through the kernel modules. *)
let guarded_env =
  [ "PSB_EXEC_KERNEL"; "PSB_PRED_KERNEL"; "PSB_SCALAR_KERNEL"; "PSB_INJECT_BUG" ]

let guard_violations () =
  List.filter (fun v -> Option.is_some (Sys.getenv_opt v)) guarded_env

(* The checkout the benchmark runs in need not be a git repository. *)
let git_commit () =
  let read f = String.trim (In_channel.with_open_text f In_channel.input_all) in
  match read ".git/HEAD" with
  | head when String.starts_with ~prefix:"ref: " head -> (
      try read (".git/" ^ String.sub head 5 (String.length head - 5))
      with Sys_error _ -> "unknown")
  | head -> head
  | exception Sys_error _ -> "unknown"

(* Every registry metric with its measured value; [None] when the run did
   not exercise the layer (reported as 0). *)
let complete registry measured =
  List.map (fun (name, unit_) -> (name, unit_, List.assoc_opt name measured)) registry

let run ~cfg ~trace ~trace_path workload =
  let timed, traced = List.assoc workload workloads in
  let tally = Workload.tally () in
  if not trace then
    let t = timed cfg tally in
    Printf.printf "setup_s: %s\nrep_s: %s\n%s\n"
      (Workload.describe ~unit_:"s" t.Workload.setup)
      (Workload.describe ~unit_:"s" t.Workload.reps)
      t.Workload.note;
    let m =
      [
        ("setup_s", Workload.p10 t.Workload.setup);
        ("rep_s", Workload.p10 t.Workload.reps);
        ("peak_rss_mb", Workload.peak_rss_mb ());
      ]
    in
    (tally, m, complete Layers.end_to_end m)
  else
    let ledger = Ledger.create () in
    let m = traced cfg tally ledger in
    Ledger.write ledger trace_path
      ~metadata:
        [
          ("workload", Json.String workload);
          ("seed", Json.Int cfg.Workload.seed);
        ];
    (tally, m, complete Layers.per_layer m)

let result_json (tally : Workload.tally) metrics =
  Json.Obj
    [
      ("correct", Json.Bool (tally.Workload.failed = 0));
      ("attempted", Json.Int tally.Workload.attempted);
      ("failed", Json.Int tally.Workload.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit_, v) ->
               ( name,
                 Json.Obj
                   [
                     ("value", Json.Float (Option.value v ~default:0.));
                     ("unit", Json.String unit_);
                   ] ))
             metrics) );
    ]

let print_metrics registry measured metrics =
  List.iter
    (fun (name, unit_, v) ->
      match v with
      | Some v -> Printf.printf "%-44s %.10g %s\n" name v unit_
      | None -> Printf.printf "%-44s 0 %s (not exercised)\n" name unit_)
    metrics;
  List.iter
    (fun (name, v) ->
      if not (List.mem_assoc name registry) then
        Printf.printf "%-44s %.10g (not in BENCHMARK.json)\n" name v)
    measured

(* ---------- the smoke check ---------- *)

let made_of extra s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | c -> String.contains extra c)
       s

let smoke file =
  let errors = ref 0 in
  let expect ok fmt =
    Printf.ksprintf
      (fun msg ->
        if not ok then begin
          incr errors;
          Printf.printf "FAIL %s\n%!" msg
        end)
      fmt
  in
  let doc =
    match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Ok d -> d
    | Error e -> failwith (file ^ ": " ^ e)
  in
  let listed key =
    Json.to_list (Option.value (Json.member key doc) ~default:Json.Null)
    |> List.map (fun m ->
           let str k = Option.bind (Json.member k m) Json.to_str in
           (Option.value (str "name") ~default:"", Option.value (str "unit") ~default:""))
  in
  let same_list what listed registry =
    List.iter
      (fun (n, u) ->
        expect (made_of "" n && made_of "/%" u) "%s: %S has a bad name or unit %S" what n u;
        expect (List.assoc_opt n registry = Some u) "%s: %s (%s) is not reported" what n u)
      listed;
    List.iter
      (fun (n, _) -> expect (List.mem_assoc n listed) "%s: %s is not in %s" what n file)
      registry
  in
  same_list "end_to_end" (listed "end_to_end") Layers.end_to_end;
  same_list "per_layer" (listed "per_layer") Layers.per_layer;
  let names = List.map fst (listed "workloads") in
  expect (names = List.map fst workloads) "workloads %s" (String.concat "," names);
  let exercised = Hashtbl.create 128 in
  List.iter
    (fun w ->
      let cfg = { Workload.seed = 1; seconds = 0.; quick = true; jobs = 2 } in
      let t0 = Workload.now () in
      let tally, _, e2e = run ~cfg ~trace:false ~trace_path:"" w in
      List.iter
        (fun (n, _, v) ->
          expect (match v with Some v -> v > 0. | None -> false) "%s: %s is not > 0" w n)
        e2e;
      expect (tally.Workload.failed = 0) "%s: %d failed checks" w tally.Workload.failed;
      let path = w ^ ".smoke-trace.json" in
      let tally, measured, _ = run ~cfg ~trace:true ~trace_path:path w in
      expect (tally.Workload.failed = 0) "%s traced: %d failed checks" w tally.Workload.failed;
      List.iter (fun (n, _) -> Hashtbl.replace exercised n ()) measured;
      (match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Ok trace -> expect (Ledger.check_nesting trace) "%s: trace spans do not nest" w
      | Error e -> expect false "%s: trace does not parse: %s" w e);
      Sys.remove path;
      Printf.printf "ok %s (%.2fs)\n%!" w (Workload.now () -. t0))
    (List.map fst workloads);
  (* a registry name no workload measures is misspelled or dead; the one
     exception is the experiments a quick regeneration leaves out *)
  List.iter
    (fun (n, _) ->
      let skipped =
        List.exists
          (fun e -> n = "eval.experiment." ^ e ^ "_s")
          Psb_eval.Report.experiment_names
      in
      expect (Hashtbl.mem exercised n || skipped) "per_layer: no workload measures %s" n)
    Layers.per_layer;
  if !errors > 0 then exit 1

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let quick = ref false and smoke_file = ref "" in
  let usage =
    "psb_benchmark.exe --workload NAME --seed N --seconds N --trace 0|1 [--quick]\n\
     psb_benchmark.exe --smoke BENCHMARK.json\n\
     workloads: " ^ String.concat ", " (List.map fst workloads)
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "N measuring budget of a timed run (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 timed run, or traced per-layer run");
      ("--quick", Arg.Set quick, " smoke size: one small rep");
      ("--smoke", Arg.Set_string smoke_file, "FILE check every workload against FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (match guard_violations () with
  | [] -> ()
  | vars when !smoke_file <> "" ->
      Printf.printf "smoke skipped: %s set\n" (String.concat ", " vars);
      exit 0
  | vars ->
      Printf.eprintf "psb-benchmark: refusing to measure with %s set\n"
        (String.concat ", " vars);
      exit 2);
  if !smoke_file <> "" then smoke !smoke_file
  else begin
    if not (List.mem_assoc !workload workloads && (!trace = 0 || !trace = 1)) then begin
      prerr_endline usage;
      exit 2
    end;
    let jobs = min 2 (Domain.recommended_domain_count ()) in
    let cfg =
      { Workload.seed = !seed; seconds = float_of_int !seconds; quick = !quick; jobs }
    in
    Printf.printf "# psb-benchmark workload=%s seed=%d seconds=%d trace=%d quick=%b\n"
      !workload !seed !seconds !trace !quick;
    Printf.printf "# commit=%s nproc=%d jobs=%d OCAMLRUNPARAM=%s\n%!" (git_commit ())
      (Domain.recommended_domain_count ())
      jobs
      (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"(unset)");
    let trace_path =
      Printf.sprintf "_benchmark/%s-seed%d.trace.json" !workload !seed
    in
    if !trace = 1 && not (Sys.file_exists "_benchmark") then Sys.mkdir "_benchmark" 0o755;
    let tally, measured, metrics = run ~cfg ~trace:(!trace = 1) ~trace_path !workload in
    print_metrics
      (if !trace = 1 then Layers.per_layer else Layers.end_to_end)
      measured metrics;
    if !trace = 1 then Printf.printf "# trace written to %s\n" trace_path;
    Printf.printf "# checks: %d attempted, %d failed\n" tally.Workload.attempted
      tally.Workload.failed;
    print_endline (Json.to_string ~minify:true (result_json tally metrics))
  end
