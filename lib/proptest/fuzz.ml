module Pool = Psb_parallel.Pool

type config = {
  trials : int;
  seed : int;
  shape : Gen.shape;
  inject : Inject.t option;
  shrink : bool;
  max_shrink_steps : int;
  max_counterexamples : int;
}

let default =
  {
    trials = 200;
    seed = 0;
    shape = Gen.default_shape;
    inject = None;
    shrink = true;
    max_shrink_steps = 1000;
    max_counterexamples = 5;
  }

type counterexample = {
  cx_trial : int;
  cx_stage : string;
  cx_detail : string;
  cx_program : Gen.t;
  cx_shrink_steps : int;
}

type outcome = {
  tested : int;
  counterexamples : counterexample list;
  wall_s : float;
  stage_seconds : (string * float) list;
}

let trials_per_second o = if o.wall_s > 0. then float_of_int o.tested /. o.wall_s else 0.

let gen_trial cfg i =
  Gen.gen cfg.shape (Random.State.make [| 0x50FB; cfg.seed; i |])

exception Shrunk of Gen.t * Diff.failure

let minimize cfg g failure =
  let g = ref g and failure = ref failure and steps = ref 0 in
  let progress = ref true in
  while !progress && !steps < cfg.max_shrink_steps do
    progress := false;
    (* take the first candidate that still fails; Gen.shrink yields
       structural drops first, so this is a greedy descent *)
    match
      Gen.shrink !g (fun candidate ->
          match Diff.check ?inject:cfg.inject candidate with
          | Ok () -> ()
          | Error f -> raise (Shrunk (candidate, f)))
    with
    | () -> ()
    | exception Shrunk (candidate, f) ->
        g := candidate;
        failure := f;
        incr steps;
        progress := true
  done;
  (!g, !failure, !steps)

(* Per-trial stage timings live in a trial-local table (pool workers are
   domains — no shared table) and are merged by the caller. *)
let run_trial cfg i =
  let times : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let bucket name f =
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let prev =
          match Hashtbl.find_opt times name with Some v -> v | None -> 0.
        in
        Hashtbl.replace times name (prev +. Unix.gettimeofday () -. t0))
  in
  let g = bucket "gen" (fun () -> gen_trial cfg i) in
  let cx =
    match Diff.check ?inject:cfg.inject ~times g with
    | Ok () -> None
    | Error f ->
        let g, f, steps =
          if cfg.shrink then
            bucket "shrink" (fun () -> minimize cfg g f)
          else (g, f, 0)
        in
        Some
          {
            cx_trial = i;
            cx_stage = f.Diff.stage;
            cx_detail = f.Diff.detail;
            cx_program = g;
            cx_shrink_steps = steps;
          }
  in
  (cx, Hashtbl.fold (fun k v acc -> (k, v) :: acc) times [])

let run ?pool ?on_progress cfg =
  let t_start = Unix.gettimeofday () in
  let batch_size =
    match pool with Some p -> max 1 (4 * Pool.jobs p) | None -> 16
  in
  let tested = ref 0 and found = ref [] in
  let stage_tbl : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let merge_times l =
    List.iter
      (fun (k, v) ->
        let prev =
          match Hashtbl.find_opt stage_tbl k with Some v -> v | None -> 0.
        in
        Hashtbl.replace stage_tbl k (prev +. v))
      l
  in
  let report_batch results =
    List.iter
      (fun r ->
        incr tested;
        match r with
        | Ok (None, times) -> merge_times times
        | Ok (Some cx, times) ->
            merge_times times;
            found := cx :: !found
        | Error (i, e) ->
            found :=
              {
                cx_trial = i;
                cx_stage = "harness";
                cx_detail = e;
                cx_program = gen_trial cfg i;
                cx_shrink_steps = 0;
              }
              :: !found)
      results;
    match on_progress with
    | Some f -> f ~tested:!tested ~found:(List.length !found)
    | None -> ()
  in
  let i = ref 0 in
  while !i < cfg.trials && List.length !found < cfg.max_counterexamples do
    let n = min batch_size (cfg.trials - !i) in
    let indices = List.init n (fun k -> !i + k) in
    i := !i + n;
    let results =
      match pool with
      | Some p ->
          Pool.map p (fun idx -> run_trial cfg idx) indices
          |> List.map2
               (fun idx -> function
                 | Ok r -> Ok r
                 | Error e ->
                     Error (idx, Printexc.to_string e.Pool.exn))
               indices
      | None ->
          List.map
            (fun idx ->
              match run_trial cfg idx with
              | r -> Ok r
              | exception e -> Error (idx, Printexc.to_string e))
            indices
    in
    report_batch results
  done;
  let stage_seconds =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) stage_tbl []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    tested = !tested;
    counterexamples = List.rev !found;
    wall_s = Unix.gettimeofday () -. t_start;
    stage_seconds;
  }

let limits_fleet ?(n = 8) ?(shape = Gen.default_shape) ~seed () =
  let st = Random.State.make [| 0x50FB; seed |] in
  List.init n (fun i ->
      let g = Gen.gen shape st in
      let w = Gen.to_dsl ~name:(Printf.sprintf "gen-%03d" i) g in
      let open Psb_workloads in
      let scalar =
        Psb_isa.Interp.run ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ())
          w.Dsl.program
      in
      Psb_eval.Limits.analyze w ~scalar)
