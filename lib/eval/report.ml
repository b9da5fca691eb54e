open Psb_compiler
module Json = Psb_obs.Json
module Hwcost = Psb_machine.Hwcost

let str s = Json.String s
let flt f = Json.Float f

let speedup_table_json (t : Experiments.speedup_table) =
  Json.Obj
    [
      ( "models",
        Json.List (List.map (fun (m : Model.t) -> str m.Model.name) t.models)
      );
      ( "rows",
        Json.List
          (List.map
             (fun (name, speedups) ->
               Json.Obj
                 [
                   ("name", str name);
                   ("speedups", Json.List (List.map flt speedups));
                 ])
             t.Experiments.rows) );
      ("geomean", Json.List (List.map flt t.Experiments.geomean));
    ]

let table2_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.table2_row) ->
         Json.Obj
           [
             ("name", str r.Experiments.t2_name);
             ("lines", Json.Int r.Experiments.t2_lines);
             ("scalar_cycles", Json.Int r.Experiments.t2_scalar_cycles);
           ])
       rows)

let table3_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.table3_row) ->
         Json.Obj
           [
             ("name", str r.Experiments.t3_name);
             ( "accuracy",
               Json.List
                 (Array.to_list (Array.map flt r.Experiments.t3_acc)) );
           ])
       rows)

let fig8_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.fig8_row) ->
         Json.Obj
           [
             ("name", str r.Experiments.f8_name);
             ( "cells",
               Json.List
                 (List.map
                    (fun (c : Experiments.fig8_cell) ->
                      Json.Obj
                        [
                          ("issue", Json.Int c.Experiments.issue);
                          ("conds", Json.Int c.Experiments.conds);
                          ("speedup", flt c.Experiments.speedup);
                        ])
                    r.Experiments.cells) );
           ])
       rows)

let shadow_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.shadow_row) ->
         Json.Obj
           [
             ("name", str r.Experiments.sh_name);
             ("single_cycles", Json.Int r.Experiments.sh_single_cycles);
             ("infinite_cycles", Json.Int r.Experiments.sh_infinite_cycles);
             ("conflicts", Json.Int r.Experiments.sh_conflicts);
             ("loss", flt r.Experiments.sh_loss);
           ])
       rows)

let validation_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.validation_row) ->
         Json.Obj
           [
             ("name", str r.Experiments.v_name);
             ("model", str r.Experiments.v_model);
             ("estimated", Json.Int r.Experiments.v_estimated);
             ("measured", Json.Int r.Experiments.v_measured);
           ])
       rows)

let counter_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.counter_row) ->
         Json.Obj
           [
             ("name", str r.Experiments.c_name);
             ("vector", flt r.Experiments.c_vector);
             ("counter", flt r.Experiments.c_counter);
           ])
       rows)

let btb_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.btb_row) ->
         Json.Obj
           [
             ("name", str r.Experiments.b_name);
             ("free", Json.Int r.Experiments.b_free);
             ("miss1", Json.Int r.Experiments.b_miss1);
           ])
       rows)

let dup_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.dup_row) ->
         Json.Obj
           [
             ("name", str r.Experiments.d_name);
             ("merged", flt r.Experiments.d_merged);
             ("split", flt r.Experiments.d_split);
           ])
       rows)

let size_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.size_row) ->
         Json.Obj
           [
             ("name", str r.Experiments.s_name);
             ("scalar", Json.Int r.Experiments.s_scalar);
             ( "by_model",
               Json.Obj
                 (List.map
                    (fun (m, slots) -> (m, Json.Int slots))
                    r.Experiments.s_by_model) );
           ])
       rows)

let unroll_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.unroll_row) ->
         Json.Obj
           [
             ("name", str r.Experiments.u_name);
             ( "by_factor",
               Json.List
                 (List.map
                    (fun (factor, speedup) ->
                      Json.Obj
                        [
                          ("factor", Json.Int factor);
                          ("speedup", flt speedup);
                        ])
                    r.Experiments.u_by_factor) );
           ])
       rows)

let sweep_json rows =
  Json.List
    (List.map
       (fun (r : Experiments.sweep_row) ->
         Json.Obj
           [
             ("taken_prob", flt r.Experiments.sw_taken_prob);
             ("trace", flt r.Experiments.sw_trace);
             ("region", flt r.Experiments.sw_region);
           ])
       rows)

let limits_json rows =
  Json.List
    (List.map
       (fun (r : Limits.row) ->
         Json.Obj
           [
             ("name", str r.Limits.name);
             ("dyn_instrs", Json.Int r.Limits.dyn_instrs);
             ("block_ipc", flt r.Limits.block_ipc);
             ("oracle_ipc", flt r.Limits.oracle_ipc);
             ("value_ipc", flt r.Limits.value_ipc);
             ("headroom", flt r.Limits.headroom);
             ("value_headroom", flt r.Limits.value_headroom);
           ])
       rows)

let rob_json (t : Experiments.rob_table) =
  Json.Obj
    [
      ( "rows",
        Json.List
          (List.map
             (fun (r : Experiments.rob_row) ->
               Json.Obj
                 [
                   ("name", str r.Experiments.r_name);
                   ("scalar_cycles", Json.Int r.Experiments.r_scalar_cycles);
                   ("rob_cycles", Json.Int r.Experiments.r_rob_cycles);
                   ("speedup", flt r.Experiments.r_speedup);
                   ("mispredicts", Json.Int r.Experiments.r_mispredicts);
                   ("squashed", Json.Int r.Experiments.r_squashed);
                   ( "architecturally_identical",
                     Json.Bool r.Experiments.r_identical );
                 ])
             t.Experiments.rob_rows) );
      ("geomean", flt t.Experiments.rob_geomean);
    ]

let hwcost_json (r : Hwcost.report) =
  Json.Obj
    [
      ("base_transistors", Json.Int r.Hwcost.base_transistors);
      ("storage_transistors", Json.Int r.Hwcost.storage_transistors);
      ("commit_transistors", Json.Int r.Hwcost.commit_transistors);
      ("storage_overhead", flt r.Hwcost.storage_overhead);
      ("commit_overhead", flt r.Hwcost.commit_overhead);
      ("total_overhead", flt r.Hwcost.total_overhead);
      ("eval_gate_levels", Json.Int r.Hwcost.eval_gate_levels);
      ("encode_bits_region", Json.Int r.Hwcost.encode_bits_region);
      ("encode_bits_trace", Json.Int r.Hwcost.encode_bits_trace);
      ("encode_bits_srcs", Json.Int r.Hwcost.encode_bits_srcs);
      ("rob_entry_transistors", Json.Int r.Hwcost.rob_entry_transistors);
      ("rob_rename_transistors", Json.Int r.Hwcost.rob_rename_transistors);
      ("rob_cam_transistors", Json.Int r.Hwcost.rob_cam_transistors);
      ("rob_overhead", flt r.Hwcost.rob_overhead);
    ]

let experiments =
  let on pp f h ppf = pp ppf (f (Lazy.force h)) in
  let speedups title = Experiments.pp_speedups ~title in
  [
    ( "table2",
      "benchmark programs (lines, scalar cycles)",
      on Experiments.pp_table2 Experiments.table2 );
    ( "table3",
      "prediction accuracy of successive branches",
      on Experiments.pp_table3 Experiments.table3 );
    ( "fig6",
      "restricted speculative execution models",
      on (speedups "Figure 6: restricted models") Experiments.figure6 );
    ( "fig7",
      "predicating vs conventional speculative execution",
      on (speedups "Figure 7: predicating models") Experiments.figure7 );
    ( "fig8",
      "full-issue machines x speculation depth",
      on Experiments.pp_figure8 Experiments.figure8 );
    ( "related",
      "the 2.2 related-work mechanism spectrum",
      on (speedups "Related-work spectrum (2.2)") Experiments.related_work );
    ( "shadow",
      "single vs infinite shadow registers (fn.1)",
      on Experiments.pp_shadow Experiments.shadow_ablation );
    ( "validation",
      "estimated vs machine-measured cycles",
      on Experiments.pp_validation Experiments.validation );
    ( "counter",
      "vector vs counter predicate representation (4.2.1)",
      on Experiments.pp_counter Experiments.counter_ablation );
    ( "btb",
      "region-transition penalty (BTB optimism)",
      on Experiments.pp_btb Experiments.btb_ablation );
    ( "dup",
      "join duplication vs commit dependences (4.2.2)",
      on Experiments.pp_dup Experiments.dup_ablation );
    ( "size",
      "static code growth per model",
      on Experiments.pp_size Experiments.code_growth );
    ( "unroll",
      "loop unrolling on the 8-issue machine (future work)",
      on Experiments.pp_unroll Experiments.unroll_ablation );
    ( "sweep",
      "synthetic branch-predictability sweep",
      on Experiments.pp_sweep (fun h ->
          Experiments.predictability_sweep ?pool:h.Harness.pool ()) );
    ( "limits",
      "ILP limit study (block vs oracle vs value oracle, the paper's motivation)",
      on Limits.pp Experiments.limits );
    ( "hwcost",
      "hardware cost model (4.2.1)",
      fun _ ppf -> Hwcost.pp_report ppf (Hwcost.analyze Hwcost.default) );
    ( "rob",
      "rival out-of-order (reorder-buffer) backend vs scalar",
      on Experiments.pp_rob Experiments.rob_rival );
  ]

let experiment_names = List.map (fun (name, _, _) -> name) experiments

let experiment (h : Harness.t) = function
  | "table2" -> Some (table2_json (Experiments.table2 h))
  | "table3" -> Some (table3_json (Experiments.table3 h))
  | "fig6" -> Some (speedup_table_json (Experiments.figure6 h))
  | "fig7" -> Some (speedup_table_json (Experiments.figure7 h))
  | "fig8" -> Some (fig8_json (Experiments.figure8 h))
  | "related" -> Some (speedup_table_json (Experiments.related_work h))
  | "shadow" -> Some (shadow_json (Experiments.shadow_ablation h))
  | "validation" -> Some (validation_json (Experiments.validation h))
  | "counter" -> Some (counter_json (Experiments.counter_ablation h))
  | "btb" -> Some (btb_json (Experiments.btb_ablation h))
  | "dup" -> Some (dup_json (Experiments.dup_ablation h))
  | "size" -> Some (size_json (Experiments.code_growth h))
  | "unroll" -> Some (unroll_json (Experiments.unroll_ablation h))
  | "sweep" ->
      Some (sweep_json (Experiments.predictability_sweep ?pool:h.Harness.pool ()))
  | "limits" -> Some (limits_json (Experiments.limits h))
  | "hwcost" -> Some (hwcost_json (Hwcost.analyze Hwcost.default))
  | "rob" -> Some (rob_json (Experiments.rob_rival h))
  | _ -> None

(* Per-workload speculation scorecards (schema 3): each workload runs
   once on the flagship executable model with the structured event log
   attached, and the folded profile is summarised per region. *)
let speculation_json (h : Harness.t) =
  let model = Model.region_pred in
  Json.Obj
    (List.map
       (fun (e : Harness.entry) ->
         let events = Psb_obs.Events.create ~capacity:(1 lsl 20) () in
         let res = Harness.measured h ~events model e in
         let prof =
           Psb_obs.Spec_profile.of_events
             ~total_cycles:res.Harness.Vliw_sim.cycles events
         in
         ( e.Harness.workload.Psb_workloads.Dsl.name,
           Json.Obj
             [
               ("model", str model.Model.name);
               ("cycles", Json.Int res.Harness.Vliw_sim.cycles);
               ( "reconciles",
                 Json.Bool (Psb_obs.Spec_profile.reconciles prof) );
               ("commits", Json.Int (Psb_obs.Spec_profile.commit_total prof));
               ( "regions",
                 Json.List
                   (List.map
                      (fun (c : Psb_obs.Spec_profile.card) ->
                        Json.Obj
                          [
                            ("region", str c.Psb_obs.Spec_profile.region);
                            ("cycles", Json.Int c.Psb_obs.Spec_profile.cycles);
                            ("useful", Json.Int c.Psb_obs.Spec_profile.useful);
                            ("wasted", Json.Int c.Psb_obs.Spec_profile.wasted);
                            ( "squash_rate",
                              flt (Psb_obs.Spec_profile.squash_rate c) );
                          ])
                      (Psb_obs.Spec_profile.cards prof)) );
             ] ))
       h.Harness.entries)

(* The "runtime" section is the one part of the document that is NOT
   deterministic (wall-clock, per-domain load, cache traffic depend on
   scheduling): consumers comparing documents across [-j] levels strip
   this member first, and the determinism tests do exactly that. The
   compile-cache and VLIW-run counters are read before the speculation
   runs below. *)
let runtime_json (h : Harness.t) ~wall_seconds ~per_experiment =
  let pool_stats =
    match h.Harness.pool with
    | Some p -> Psb_parallel.Pool.stats p
    | None -> [||]
  in
  let cache = Harness.cache_stats h and runs = Harness.run_stats h in
  Json.Obj
    [
      ("jobs", Json.Int (Harness.jobs h));
      ( "domains",
        Json.List
          (Array.to_list
             (Array.mapi
                (fun i (s : Psb_parallel.Pool.domain_stat) ->
                  Json.Obj
                    [
                      ("domain", Json.Int i);
                      ("tasks", Json.Int s.Psb_parallel.Pool.tasks);
                      ( "busy_seconds",
                        Json.Float s.Psb_parallel.Pool.busy_seconds );
                    ])
                pool_stats)) );
      ( "compile_cache",
        Json.Obj
          [
            ("hits", Json.Int cache.Psb_compiler.Compile_cache.hits);
            ("misses", Json.Int cache.Psb_compiler.Compile_cache.misses);
            ("entries", Json.Int cache.Psb_compiler.Compile_cache.entries);
          ] );
      ( "vliw_runs",
        Json.Obj
          [
            ("requests", Json.Int runs.Harness.requests);
            ("runs", Json.Int runs.Harness.runs);
          ] );
      ( "experiments_wall_seconds",
        Json.Obj (List.map (fun (n, s) -> (n, Json.Float s)) per_experiment) );
      ("wall_seconds", Json.Float wall_seconds);
      ("speculation", speculation_json h);
    ]

let all ?(names = experiment_names) ?(runtime = false) h =
  let t0 = Unix.gettimeofday () in
  let timings = ref [] in
  let experiments =
    List.map
      (fun name ->
        let e0 = Unix.gettimeofday () in
        match experiment h name with
        | Some v ->
            timings := (name, Unix.gettimeofday () -. e0) :: !timings;
            (name, v)
        | None -> invalid_arg ("Report.all: unknown experiment " ^ name))
      names
  in
  Json.Obj
    ([
       ("schema_version", Json.Int 4);
       ("experiments", Json.Obj experiments);
     ]
    @
    if runtime then
      [
        ( "runtime",
          runtime_json h
            ~wall_seconds:(Unix.gettimeofday () -. t0)
            ~per_experiment:(List.rev !timings) );
      ]
    else [])
