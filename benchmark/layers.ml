(* Every metric the benchmark reports, with its unit: the list
   BENCHMARK.json must repeat exactly (the smoke test checks both ways).

   A per-layer name is [<lib module>.<quantity>]. A workload reports the
   whole list; a layer it does not exercise, or one a later change has
   removed, reads 0 and is listed as "not exercised" in the run's text
   output. *)

let end_to_end = [ ("setup_s", "s"); ("rep_s", "s"); ("peak_rss_mb", "MB") ]

let calls prefix =
  [
    (prefix ^ ".us_per_call", "us");
    (prefix ^ ".words_per_call", "words");
    (prefix ^ ".share", "ratio");
  ]

(* The pass labels [Driver.compile ?metrics] reports in
   [compile_pass_seconds], and [Diff.check ~times]'s buckets. *)
let compile_passes =
  [ "cfg"; "unit_formation"; "schedule"; "check"; "emit"; "verify"; "lower"; "decode" ]

let diff_buckets = [ "decode"; "interp"; "scalar"; "rob"; "profile"; "models"; "cache" ]
let programs = Psb_workloads.Suite.names

let vliw_breakdown =
  [
    "useful_issue"; "squashed_issue"; "shadow_conflict_stall";
    "store_buffer_stall"; "recovery"; "region_transition";
  ]

let rob_breakdown =
  [ "fault_restart"; "commit"; "redirect_flush"; "memory_wait"; "frontend"; "execute" ]

let machine prefix ~ipc_unit ~counts ~breakdown =
  calls prefix
  @ [
      (prefix ^ ".words_per_instr", "words/instr");
      (prefix ^ ".ns_per_cycle", "ns/cycle");
      (prefix ^ ".minstr_per_s", "Minstr/s");
    ]
  @ List.map (fun p -> (Printf.sprintf "%s.%s_minstr_per_s" prefix p, "Minstr/s")) programs
  @ [ (prefix ^ ".cycles", "cycles"); (prefix ^ ".ipc", ipc_unit) ]
  @ List.map (fun c -> (prefix ^ "." ^ c, "count")) counts
  @ [ (prefix ^ ".useful_ratio", "ratio") ]
  @ List.map (fun c -> (prefix ^ ".breakdown." ^ c, "cycles")) breakdown

let per_layer =
  calls "compiler.compile"
  @ List.map (fun p -> ("compiler.pass." ^ p ^ "_share", "ratio")) compile_passes
  @ [
      ("compiler.cache_hit.us_per_call", "us");
      ("compiler.cache.hits", "count");
      ("compiler.cache.misses", "count");
    ]
  @ calls "compiler.profile" @ calls "verify" @ calls "proptest.gen"
  @ List.map (fun b -> ("proptest.diff." ^ b ^ "_share", "ratio")) diff_buckets
  @ [ ("proptest.diff.coverage", "ratio") ]
  @ calls "isa.interp"
  @ [
      ("isa.interp.words_per_instr", "words/instr");
      ("isa.interp.minstr_per_s", "Minstr/s");
    ]
  @ List.map (fun p -> ("isa.interp." ^ p ^ "_minstr_per_s", "Minstr/s")) programs
  @ machine "machine.vliw" ~ipc_unit:"ops/cycle" ~counts:[ "commits"; "squashes" ]
      ~breakdown:vliw_breakdown
  @ machine "machine.rob" ~ipc_unit:"instr/cycle"
      ~counts:[ "mispredicts"; "squashed" ] ~breakdown:rob_breakdown
  @ [ ("eval.harness_create_s", "s") ]
  @ List.map
      (fun e -> ("eval.experiment." ^ e ^ "_s", "s"))
      Psb_eval.Report.experiment_names
  @ [
      ("eval.speedup_geomean", "x");
      ("parallel.pool.busy_s", "s");
      ("parallel.pool.tasks", "count");
      ("parallel.pool.imbalance", "ratio");
      ("trace_overhead", "ratio");
    ]
