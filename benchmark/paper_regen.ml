(* paper-regen: regenerate every table and figure of the paper, as
   [bench/main.exe --json] does — a fresh [Harness.create] over a
   two-domain pool, then [Report.all] over the 17 experiments with a
   cold compile cache.

   Why: this is what a paper reader runs. Its time goes mostly to VLIW
   runs and cycle estimation, and it is the only workload that exercises
   the domain pool and compile-cache hits. The inputs are the six fixed
   paper programs, so the seed is recorded but changes nothing. *)

open Psb_eval
module Json = Psb_obs.Json
module Pool = Psb_parallel.Pool

let names (cfg : Workload.config) =
  if cfg.quick then [ "table2"; "fig7"; "rob" ] else Report.experiment_names

let member path doc =
  List.fold_left
    (fun j k -> Option.value (Json.member k j) ~default:Json.Null)
    doc path

(* Only the experiments member: "runtime" is wall-clock. *)
let digest doc =
  Digest.to_hex
    (Digest.string (Json.to_string ~minify:true (member [ "experiments" ] doc)))

(* Figure 7's region-pred geomean — the paper's headline speedup. *)
let speedup_geomean doc =
  let fig7 = member [ "experiments"; "fig7" ] doc in
  let models = List.filter_map Json.to_str (Json.to_list (member [ "models" ] fig7)) in
  let geomean = Json.to_list (member [ "geomean" ] fig7) in
  List.combine models geomean
  |> List.assoc_opt "region-pred"
  |> Fun.flip Option.bind Json.to_float

(* The document checks: the experiments equal the first rep's, and every
   ROB row is architecturally identical to the interpreter. *)
let check_doc tally ~reference doc =
  let d = digest doc in
  (match !reference with
  | None -> reference := Some d
  | Some r -> Workload.check tally (d = r) "experiments differ from the first rep's");
  List.iter
    (fun row ->
      Workload.check tally
        (member [ "architecturally_identical" ] row = Json.Bool true)
        ("rob row differs from the interpreter: " ^ Json.to_string ~minify:true row))
    (Json.to_list (member [ "experiments"; "rob"; "rows" ] doc))

(* A raise (e.g. [Harness.measured] seeing a VLIW run diverge) is a
   failed operation, and the run goes on. *)
let guarded tally what f =
  match f () with
  | v -> Some v
  | exception e ->
      Workload.check tally false (what ^ ": " ^ Printexc.to_string e);
      None

let regen cfg pool = Report.all ~names:(names cfg) (Harness.create ~pool ())

let timed (cfg : Workload.config) tally =
  let pool = ref None in
  let setup =
    Workload.setup cfg (fun () ->
        Option.iter Pool.shutdown !pool;
        let p = Pool.create ~jobs:cfg.Workload.jobs () in
        pool := Some p;
        ignore (Harness.create ~pool:p ()))
  in
  let pool = Option.get !pool in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let reference = ref None and last = ref None in
  let reps =
    Workload.reps cfg (fun _ ->
        Option.iter
          (fun doc ->
            check_doc tally ~reference doc;
            last := Some doc)
          (guarded tally "regeneration" (fun () -> regen cfg pool)))
  in
  {
    Workload.setup;
    reps;
    note =
      Option.fold ~none:"no regeneration completed"
        ~some:(fun doc ->
          Printf.sprintf "%.4g regenerations/s; experiments digest %s; fig7 region-pred geomean %s"
            (1. /. Workload.p10 reps) (digest doc)
            (Option.fold ~none:"-" ~some:(Printf.sprintf "%.12g") (speedup_geomean doc)))
        !last;
  }

let busy pool =
  Array.map (fun d -> (d.Pool.busy_seconds, d.Pool.tasks)) (Pool.stats pool)

(* The speculation scorecards ("runtime" member) must reconcile with the
   machine's cycle accounting. *)
let check_speculation tally doc =
  match member [ "runtime"; "speculation" ] doc with
  | Json.Obj workloads ->
      List.iter
        (fun (w, card) ->
          Workload.check tally
            (member [ "reconciles" ] card = Json.Bool true)
            (w ^ ": speculation profile does not reconcile"))
        workloads
  | _ -> Workload.check tally false "no speculation scorecards"

(* One cold/warm pair: a fresh harness with one span per experiment,
   then [Report.all] again on the same harness, every compile a cache
   hit. Returns the harness, the cold document, and the pool's work per
   domain and the cache counters over the cold pass. *)
let pair cfg tally ledger pool i =
  let before = busy pool in
  let h, cold =
    Ledger.span ledger ~rep:i "regen.cold" (fun () ->
        let h =
          Ledger.span ledger "eval.harness_create" (fun () -> Harness.create ~pool ())
        in
        let experiments =
          List.filter_map
            (fun name ->
              Ledger.span ledger ~label:name "eval.experiment" (fun () ->
                  guarded tally name (fun () -> Report.all ~names:[ name ] h))
              |> Option.map (fun doc -> (name, member [ "experiments"; name ] doc)))
            (names cfg)
        in
        (h, Json.Obj [ ("experiments", Json.Obj experiments) ]))
  in
  let work = Array.map2 (fun (b1, t1) (b0, t0) -> (b1 -. b0, t1 - t0)) (busy pool) before in
  let cache = Harness.cache_stats h in
  let reference = ref (Some (digest cold)) in
  Ledger.span ledger ~rep:i "regen.warm" (fun () ->
      Option.iter (check_doc tally ~reference)
        (guarded tally "warm regeneration" (fun () -> Report.all ~names:(names cfg) h)));
  (h, cold, work, cache)

(* Two pairs; the compile share is (cold - warm) / cold over both. *)
let traced (cfg : Workload.config) tally ledger =
  Pool.with_pool ~jobs:cfg.Workload.jobs @@ fun pool ->
  let n = if cfg.quick then 1 else 2 in
  let pairs = List.init n (pair cfg tally ledger pool) in
  let h, cold, _, cache = List.hd pairs in
  Ledger.span ledger "regen.speculation" (fun () ->
      Option.iter (check_speculation tally)
        (guarded tally "speculation" (fun () ->
             Report.all ~names:[ "table2" ] ~runtime:true h)));
  let untraced = snd (Workload.timed (fun () -> ignore (regen cfg pool))) in
  let per_pair x = x /. float_of_int n in
  let span_s ?label name = per_pair (Ledger.stat ledger ?label name).Ledger.seconds in
  let cold_s = span_s "eval.experiment" and warm_s = span_s "regen.warm" in
  let domain_busy = Array.make (Pool.jobs pool) 0. and tasks = ref 0 in
  List.iter
    (fun (_, _, work, _) ->
      Array.iteri
        (fun d (b, t) ->
          domain_busy.(d) <- domain_busy.(d) +. b;
          tasks := !tasks + t)
        work)
    pairs;
  let busy_s = Array.fold_left ( +. ) 0. domain_busy in
  (* the busiest domain over the mean: 0 when the pool is balanced *)
  let imbalance =
    if busy_s > 0. then
      (Array.fold_left Float.max 0. domain_busy *. float_of_int (Pool.jobs pool) /. busy_s) -. 1.
    else 0.
  in
  [
    ("eval.harness_create_s", span_s "eval.harness_create");
    ("compiler.compile.share", Workload.ratio (cold_s -. warm_s) cold_s);
    ("compiler.cache.hits", float_of_int cache.Psb_compiler.Compile_cache.hits);
    ("compiler.cache.misses", float_of_int cache.Psb_compiler.Compile_cache.misses);
    ("parallel.pool.busy_s", per_pair busy_s);
    ("parallel.pool.tasks", per_pair (float_of_int !tasks));
    ("parallel.pool.imbalance", imbalance);
    ("trace_overhead", Workload.ratio (span_s "regen.cold") untraced -. 1.);
  ]
  @ List.map
      (fun name -> ("eval.experiment." ^ name ^ "_s", span_s ~label:name "eval.experiment"))
      (names cfg)
  @ Option.fold ~none:[] ~some:(fun g -> [ ("eval.speedup_geomean", g) ]) (speedup_geomean cold)
