(* Plumbing shared by the three workloads: the run configuration, the
   correctness tally, the timing loops and the summary statistics. *)

type config = {
  seed : int;
  seconds : float;  (** measuring budget of a timed run *)
  quick : bool;  (** smoke size: one small rep of everything *)
  jobs : int;  (** domains a workload may use (paper-regen's pool) *)
}

(* Every correctness check is one attempted operation; a failed one is
   counted and reported, and the run goes on. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "psb-benchmark: check failed: %s\n%!" what
  end

let count t ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  t.failed <- t.failed + failed

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Python's [statistics.quantiles(xs, n=n)] (the "exclusive" method):
   the n - 1 cut points, so the figures printed here are the ones a
   reader recomputes from the same samples. *)
let quantiles xs n =
  let a = Array.of_list xs in
  Array.sort compare a;
  match Array.length a with
  | 0 -> Array.make (n - 1) nan
  | 1 -> Array.make (n - 1) a.(0)
  | len ->
      let m = len + 1 in
      Array.init (n - 1) (fun i ->
          let i = i + 1 in
          let j = max 1 (min (len - 1) (i * m / n)) in
          let delta = (i * m) - (j * n) in
          ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
          /. float_of_int n)

let median xs = (quantiles xs 2).(0)

(* The 10th percentile, which [setup_s] and [rep_s] report: the time of
   a sample the shared host did not disturb. Host load comes in bursts
   that slow a rep by up to half, so a run's median drifts with the load
   while its fast decile holds. *)
let p10 xs = (quantiles xs 10).(0)

let describe ~unit_ xs =
  let q = quantiles xs 4 in
  Printf.sprintf "p10 %.6g %s  p25 %.6g  median %.6g  p75 %.6g  n=%d" (p10 xs) unit_
    q.(0) q.(1) q.(2) (List.length xs)

(* 21 timed set-ups (one when quick). Each runs [f] afresh, so work
   moved into set-up shows in every sample, not only the first. *)
let setup cfg f = List.init (if cfg.quick then 1 else 21) (fun _ -> snd (timed f))

(* Closed loop: the next rep starts when the previous one ends, until
   [cfg.seconds] have elapsed (at least three reps; one when quick).
   Returns each rep's wall seconds. *)
let reps cfg f =
  let t_end = now () +. cfg.seconds in
  let rec go k acc =
    if k >= (if cfg.quick then 1 else 3) && (cfg.quick || now () >= t_end) then
      List.rev acc
    else go (k + 1) (snd (timed (fun () -> f k)) :: acc)
  in
  go 0 []

(* A timed run's samples, and a line giving the workload's own rate. *)
type timing = { setup : float list; reps : float list; note : string }

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb ->
                  Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
      (* not Linux: the major heap's high-water mark is the nearest
         thing the runtime itself knows *)
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

let ratio a b = if b > 0. then a /. b else 0.
