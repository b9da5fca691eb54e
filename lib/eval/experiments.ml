open Psb_isa
open Psb_compiler
open Psb_workloads
module Machine_model = Psb_machine.Machine_model
module Vliw_sim = Psb_machine.Vliw_sim
module Rob_sim = Psb_machine.Rob_sim

(* Sharding helpers: experiments flatten their (workload x model x
   config) grids into one task list, evaluate it through the harness
   pool, and regroup. Regrouping by fixed-size chunk keeps the result
   deterministic: position in the flat list encodes the cell. *)

let chunks n xs =
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> invalid_arg "Experiments.chunks: ragged input"
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go = function
    | [] -> []
    | xs ->
        let c, rest = take n [] xs in
        c :: go rest
  in
  if n <= 0 then invalid_arg "Experiments.chunks" else go xs

let grid entries cols = List.concat_map (fun e -> List.map (fun c -> (e, c)) cols) entries

(* ----- Table 2 ----- *)

type table2_row = { t2_name : string; t2_lines : int; t2_scalar_cycles : int }

let table2 (h : Harness.t) =
  List.map
    (fun (e : Harness.entry) ->
      {
        t2_name = e.Harness.workload.Dsl.name;
        t2_lines = Program.size e.Harness.workload.Dsl.program;
        t2_scalar_cycles = Harness.scalar_cycles e;
      })
    h.Harness.entries

let pp_table2 ppf rows =
  Format.fprintf ppf "@[<v>Table 2: Benchmark programs@,";
  Format.fprintf ppf "%-10s %8s %14s@," "Program" "Lines" "Scalar cycles";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %8d %14d@," r.t2_name r.t2_lines
        r.t2_scalar_cycles)
    rows;
  Format.fprintf ppf "@]"

(* ----- Table 3 ----- *)

type table3_row = { t3_name : string; t3_acc : float array }

let table3 (h : Harness.t) =
  Harness.par_map h
    (fun (e : Harness.entry) ->
      let t =
        Trace.of_result e.Harness.workload.Dsl.program e.Harness.scalar
      in
      {
        t3_name = e.Harness.workload.Dsl.name;
        t3_acc = Array.init 8 (fun i -> Trace.successive_accuracy t (i + 1));
      })
    h.Harness.entries

let pp_table3 ppf rows =
  Format.fprintf ppf
    "@[<v>Table 3: Prediction accuracy of successive branches@,";
  Format.fprintf ppf "%-10s" "#branches";
  for n = 1 to 8 do
    Format.fprintf ppf " %5d" n
  done;
  Format.fprintf ppf "@,";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s" r.t3_name;
      Array.iter (fun a -> Format.fprintf ppf " %5.2f" a) r.t3_acc;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"

(* ----- speedup tables ----- *)

type speedup_table = {
  models : Model.t list;
  rows : (string * float list) list;
  geomean : float list;
}

let speedups (h : Harness.t) models =
  (* one task per (workload x model) cell *)
  let flat =
    Harness.par_map h
      (fun ((e : Harness.entry), m) ->
        let scalar = Harness.scalar_cycles e in
        let cycles = Harness.estimated_cycles h m e in
        Harness.speedup ~scalar ~cycles)
      (grid h.Harness.entries models)
  in
  let rows =
    List.map2
      (fun (e : Harness.entry) per_model ->
        (e.Harness.workload.Dsl.name, per_model))
      h.Harness.entries
      (chunks (List.length models) flat)
  in
  let geomean =
    List.mapi
      (fun idx _ -> Harness.geomean (List.map (fun (_, s) -> List.nth s idx) rows))
      models
  in
  { models; rows; geomean }

let figure6 h = speedups h Model.restricted
let figure7 h = speedups h Model.predicating

let related_work h =
  speedups h [ Model.guarded; Model.squashing; Model.boosting; Model.region_pred ]

let pp_speedups ~title ppf t =
  Format.fprintf ppf "@[<v>%s (speedup over the scalar machine)@," title;
  Format.fprintf ppf "%-10s" "";
  List.iter (fun m -> Format.fprintf ppf " %12s" m.Model.name) t.models;
  Format.fprintf ppf "@,";
  List.iter
    (fun (name, ss) ->
      Format.fprintf ppf "%-10s" name;
      List.iter (fun s -> Format.fprintf ppf " %12.2f" s) ss;
      Format.fprintf ppf "@,")
    t.rows;
  Format.fprintf ppf "%-10s" "geomean";
  List.iter (fun s -> Format.fprintf ppf " %12.2f" s) t.geomean;
  Format.fprintf ppf "@,@]"

(* ----- rival out-of-order backend ----- *)

type rob_row = {
  r_name : string;
  r_scalar_cycles : int;
  r_rob_cycles : int;
  r_speedup : float;
  r_mispredicts : int;
  r_squashed : int;
  r_identical : bool;
}

type rob_table = { rob_rows : rob_row list; rob_geomean : float }

let rob_rival (h : Harness.t) =
  let rob_rows =
    Harness.par_map h
      (fun (e : Harness.entry) ->
        let w = e.Harness.workload in
        let r =
          Rob_sim.run ~model:h.Harness.machine ~regs:w.Dsl.regs
            ~mem:(w.Dsl.make_mem ()) w.Dsl.program
        in
        let scalar = Harness.scalar_cycles e in
        let s = e.Harness.scalar in
        {
          r_name = w.Dsl.name;
          r_scalar_cycles = scalar;
          r_rob_cycles = r.cycles;
          r_speedup = Harness.speedup ~scalar ~cycles:r.cycles;
          r_mispredicts = r.Rob_sim.stats.Rob_sim.mispredicts;
          r_squashed = r.Rob_sim.stats.Rob_sim.squashed;
          r_identical =
            s.Interp.outcome = r.Rob_sim.outcome
            && s.Interp.output = r.Rob_sim.output
            && Reg.Map.equal Int.equal s.Interp.regs r.Rob_sim.regs
            && s.Interp.faults_handled = r.Rob_sim.faults_handled;
        })
      h.Harness.entries
  in
  {
    rob_rows;
    rob_geomean = Harness.geomean (List.map (fun r -> r.r_speedup) rob_rows);
  }

let pp_rob ppf t =
  Format.fprintf ppf
    "@[<v>Rival out-of-order backend (same ISA, same capacities)@,";
  Format.fprintf ppf "%-10s %10s %10s %8s %10s %9s %6s@," "Program" "scalar"
    "rob" "speedup" "mispredict" "squashed" "ident";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %10d %10d %8.2f %10d %9d %6s@," r.r_name
        r.r_scalar_cycles r.r_rob_cycles r.r_speedup r.r_mispredicts
        r.r_squashed
        (if r.r_identical then "yes" else "NO"))
    t.rob_rows;
  Format.fprintf ppf "%-10s %10s %10s %8.2f@," "geomean" "" "" t.rob_geomean;
  Format.fprintf ppf "@]"

(* ----- Figure 8 ----- *)

type fig8_cell = { issue : int; conds : int; speedup : float }
type fig8_row = { f8_name : string; cells : fig8_cell list }

let figure8 ?(issues = [ 2; 4; 8 ]) ?(cond_depths = [ 1; 2; 4; 8 ]) (h : Harness.t) =
  let configs =
    List.concat_map (fun issue -> List.map (fun c -> (issue, c)) cond_depths) issues
  in
  let flat =
    Harness.par_map h
      (fun ((e : Harness.entry), (issue, conds)) ->
        let scalar = Harness.scalar_cycles e in
        let machine =
          Machine_model.full_issue ~width:issue ~max_spec_conds:conds
        in
        let cycles = Harness.estimated_cycles h ~machine Model.region_pred e in
        { issue; conds; speedup = Harness.speedup ~scalar ~cycles })
      (grid h.Harness.entries configs)
  in
  List.map2
    (fun (e : Harness.entry) cells ->
      { f8_name = e.Harness.workload.Dsl.name; cells })
    h.Harness.entries
    (chunks (List.length configs) flat)

let pp_figure8 ppf rows =
  Format.fprintf ppf
    "@[<v>Figure 8: full-issue machines x speculation depth (region \
     predicating)@,";
  match rows with
  | [] -> Format.fprintf ppf "(no rows)@]"
  | first :: _ ->
      Format.fprintf ppf "%-10s" "";
      List.iter
        (fun c -> Format.fprintf ppf " %3d-i/%d" c.issue c.conds)
        first.cells;
      Format.fprintf ppf "@,";
      List.iter
        (fun r ->
          Format.fprintf ppf "%-10s" r.f8_name;
          List.iter (fun c -> Format.fprintf ppf " %7.2f" c.speedup) r.cells;
          Format.fprintf ppf "@,")
        rows;
      Format.fprintf ppf "@]"

(* ----- shadow-register ablation (footnote 1) ----- *)

type shadow_row = {
  sh_name : string;
  sh_single_cycles : int;
  sh_infinite_cycles : int;
  sh_conflicts : int;
  sh_loss : float;
}

let shadow_ablation (h : Harness.t) =
  Harness.par_map h
    (fun (e : Harness.entry) ->
      let single = Harness.measured h Model.region_pred e in
      let infinite =
        Harness.measured h
          ~machine:
            { h.Harness.machine with shadow = Psb_machine.Regfile.Infinite }
          Model.region_pred e
      in
      {
        sh_name = e.Harness.workload.Dsl.name;
        sh_single_cycles = single.Vliw_sim.cycles;
        sh_infinite_cycles = infinite.Vliw_sim.cycles;
        sh_conflicts = single.Vliw_sim.stats.Vliw_sim.shadow_conflicts;
        sh_loss =
          (float_of_int single.Vliw_sim.cycles
           /. float_of_int infinite.Vliw_sim.cycles)
          -. 1.0;
      })
    h.Harness.entries

let pp_shadow ppf rows =
  Format.fprintf ppf
    "@[<v>Shadow-register ablation (single vs infinite; paper fn.1: 0-1%% \
     loss)@,";
  Format.fprintf ppf "%-10s %10s %10s %10s %8s@," "Program" "single" "infinite"
    "conflicts" "loss";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %10d %10d %10d %7.2f%%@," r.sh_name
        r.sh_single_cycles r.sh_infinite_cycles r.sh_conflicts
        (100. *. r.sh_loss))
    rows;
  Format.fprintf ppf "@]"

(* ----- estimate vs measured validation ----- *)

type validation_row = {
  v_name : string;
  v_model : string;
  v_estimated : int;
  v_measured : int;
}

let validation (h : Harness.t) =
  Harness.par_map h
    (fun ((e : Harness.entry), m) ->
      {
        v_name = e.Harness.workload.Dsl.name;
        v_model = m.Model.name;
        v_estimated = Harness.estimated_cycles h m e;
        v_measured = (Harness.measured h m e).Vliw_sim.cycles;
      })
    (grid h.Harness.entries
       [ Model.region_sched; Model.trace_pred; Model.region_pred ])

let pp_validation ppf rows =
  Format.fprintf ppf "@[<v>Accounting validation: estimated vs machine-measured@,";
  Format.fprintf ppf "%-10s %-14s %10s %10s %7s@," "Program" "Model" "est"
    "measured" "ratio";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %-14s %10d %10d %7.2f@," r.v_name r.v_model
        r.v_estimated r.v_measured
        (float_of_int r.v_estimated /. float_of_int r.v_measured))
    rows;
  Format.fprintf ppf "@]"

(* ----- counter vs vector predicates (§4.2.1) ----- *)

type counter_row = { c_name : string; c_vector : float; c_counter : float }

let counter_ablation (h : Harness.t) =
  Harness.par_map h
    (fun (e : Harness.entry) ->
      let scalar = Harness.scalar_cycles e in
      let s m = Harness.speedup ~scalar ~cycles:(Harness.estimated_cycles h m e) in
      {
        c_name = e.Harness.workload.Dsl.name;
        c_vector = s Model.trace_pred;
        c_counter = s Model.trace_pred_counter;
      })
    h.Harness.entries

let pp_counter ppf rows =
  Format.fprintf ppf
    "@[<v>Predicate representation (4.2.1): vector vs counter@,";
  Format.fprintf ppf "%-10s %10s %10s@," "Program" "vector" "counter";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %10.2f %10.2f@," r.c_name r.c_vector r.c_counter)
    rows;
  Format.fprintf ppf "@]"

(* ----- BTB optimism (region-transition penalty) ----- *)

type btb_row = { b_name : string; b_free : int; b_miss1 : int }

let btb_ablation (h : Harness.t) =
  let machine1 =
    { h.Harness.machine with Machine_model.transition_penalty = 1 }
  in
  Harness.par_map h
    (fun (e : Harness.entry) ->
      let free = Harness.measured h Model.region_pred e in
      let miss = Harness.measured h ~machine:machine1 Model.region_pred e in
      {
        b_name = e.Harness.workload.Dsl.name;
        b_free = free.Vliw_sim.cycles;
        b_miss1 = miss.Vliw_sim.cycles;
      })
    h.Harness.entries

let pp_btb ppf rows =
  Format.fprintf ppf
    "@[<v>BTB optimism: free region transitions vs 1-cycle redirect@,";
  Format.fprintf ppf "%-10s %10s %10s %8s@," "Program" "free" "miss=1" "cost";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %10d %10d %7.1f%%@," r.b_name r.b_free r.b_miss1
        (100. *. (float_of_int r.b_miss1 /. float_of_int r.b_free -. 1.0)))
    rows;
  Format.fprintf ppf "@]"

(* ----- join duplication vs commit dependences (§4.2.2) ----- *)

type dup_row = { d_name : string; d_merged : float; d_split : float }

let dup_ablation (h : Harness.t) =
  Harness.par_map h
    (fun (e : Harness.entry) ->
      let scalar = Harness.scalar_cycles e in
      let est ~avoid =
        let compiled =
          Harness.compile h ~avoid_commit_deps:avoid Model.region_pred e
        in
        Driver.estimate_cycles compiled e.Harness.workload.Dsl.program
          ~block_trace:e.Harness.scalar.Interp.block_trace
      in
      {
        d_name = e.Harness.workload.Dsl.name;
        d_merged = Harness.speedup ~scalar ~cycles:(est ~avoid:false);
        d_split = Harness.speedup ~scalar ~cycles:(est ~avoid:true);
      })
    h.Harness.entries

let pp_dup ppf rows =
  Format.fprintf ppf
    "@[<v>Join duplication (4.2.2): merged joins vs commit-dependence      avoidance@,";
  Format.fprintf ppf "%-10s %10s %10s@," "Program" "merged" "split";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %10.2f %10.2f@," r.d_name r.d_merged r.d_split)
    rows;
  Format.fprintf ppf "@]"

(* ----- code growth ----- *)

type size_row = {
  s_name : string;
  s_scalar : int;
  s_by_model : (string * int) list;
}

let code_growth (h : Harness.t) =
  let models = [ Model.global; Model.boosting; Model.trace_pred; Model.region_pred ] in
  Harness.par_map h
    (fun (e : Harness.entry) ->
      let w = e.Harness.workload in
      {
        s_name = w.Dsl.name;
        s_scalar = Program.size w.Dsl.program;
        s_by_model =
          List.map
            (fun m ->
              let compiled = Harness.compile h m e in
              (m.Model.name, Driver.code_size compiled))
            models;
      })
    h.Harness.entries

let pp_size ppf rows =
  Format.fprintf ppf "@[<v>Static code size (slots) per model@,";
  (match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%-10s %8s" "" "scalar";
      List.iter (fun (m, _) -> Format.fprintf ppf " %12s" m) first.s_by_model;
      Format.fprintf ppf "@,");
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %8d" r.s_name r.s_scalar;
      List.iter (fun (_, n) -> Format.fprintf ppf " %12d" n) r.s_by_model;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"

(* ----- loop unrolling on wide machines (the paper's future work) ----- *)

type unroll_row = { u_name : string; u_by_factor : (int * float) list }

let unroll_ablation ?(factors = [ 1; 2; 4 ]) (h : Harness.t) =
  let machine = Machine_model.full_issue ~width:8 ~max_spec_conds:8 in
  let flat =
    Harness.par_map h
      (fun ((e : Harness.entry), factor) ->
        let w = e.Harness.workload in
        (* at factor 1 the program is the entry's own, already profiled *)
        let program, scalar, profile =
          if factor <= 1 then (w.Dsl.program, e.Harness.scalar, e.Harness.profile)
          else
            let program = Transform.unroll_loops ~factor w.Dsl.program in
            let scalar, profile =
              Driver.profile_of program ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
            in
            (program, scalar, profile)
        in
        let compiled =
          Driver.compile ~cache:h.Harness.cache ~model:Model.region_pred
            ~machine ~profile program
        in
        let cycles =
          Driver.estimate_cycles compiled program
            ~block_trace:scalar.Interp.block_trace
        in
        (factor, Harness.speedup ~scalar:scalar.Interp.cycles ~cycles))
      (grid h.Harness.entries factors)
  in
  List.map2
    (fun (e : Harness.entry) u_by_factor ->
      { u_name = e.Harness.workload.Dsl.name; u_by_factor })
    h.Harness.entries
    (chunks (List.length factors) flat)

let pp_unroll ppf rows =
  Format.fprintf ppf
    "@[<v>Loop unrolling x region predicating, 8-issue (the paper's future \
     work)@,";
  (match rows with
  | [] -> ()
  | first :: _ ->
      Format.fprintf ppf "%-10s" "";
      List.iter (fun (f, _) -> Format.fprintf ppf " %7s" (Format.asprintf "x%d" f)) first.u_by_factor;
      Format.fprintf ppf "@,");
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s" r.u_name;
      List.iter (fun (_, s) -> Format.fprintf ppf " %7.2f" s) r.u_by_factor;
      Format.fprintf ppf "@,")
    rows;
  Format.fprintf ppf "@]"

(* ----- ILP limit study (§1) ----- *)

let limits (h : Harness.t) =
  Harness.par_map h
    (fun (e : Harness.entry) ->
      Limits.analyze e.Harness.workload ~scalar:e.Harness.scalar)
    h.Harness.entries

(* ----- synthetic predictability sweep ----- *)

type sweep_row = { sw_taken_prob : float; sw_trace : float; sw_region : float }

let predictability_sweep ?pool ?(probs = [ 0.5; 0.65; 0.8; 0.9; 0.98 ]) () =
  let cell p =
    (* Each probability point is one task: it builds its own (sequential)
       single-workload harness, so tasks stay independent and nothing
       nests inside the pool. *)
    let w = Synth.generate { Synth.default with taken_prob = p } in
    let h = Harness.create ~workloads:[ w ] () in
    let e = List.hd h.Harness.entries in
    let scalar = Harness.scalar_cycles e in
    let s m = Harness.speedup ~scalar ~cycles:(Harness.estimated_cycles h m e) in
    {
      sw_taken_prob = p;
      sw_trace = s Model.trace_pred;
      sw_region = s Model.region_pred;
    }
  in
  match pool with
  | Some p -> Psb_parallel.Pool.map_exn p cell probs
  | None -> List.map cell probs

let pp_sweep ppf rows =
  Format.fprintf ppf
    "@[<v>Predictability sweep (synthetic): trace- vs region-predicating@,";
  Format.fprintf ppf "%-12s %10s %10s@," "taken-prob" "trace" "region";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12.2f %10.2f %10.2f@," r.sw_taken_prob r.sw_trace
        r.sw_region)
    rows;
  Format.fprintf ppf "@]"
