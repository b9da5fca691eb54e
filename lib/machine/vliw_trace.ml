open Psb_isa
module Events = Psb_obs.Events
module Trace_event = Psb_obs.Trace_event
module Json = Psb_obs.Json

(* ----- reading the ring -----

   The machine writes (cycle, kind, a, b) quadruples; a reader holding
   the pcode resolves them. [Region_enter] names the region; [Issue]
   events count bundles from its top, and from the top again at
   [Recovery_start], where the PC rolls back; [Op_issue] names its own
   bundle and slot. *)

type cursor = {
  model : Machine_model.t;
  ring : Events.t;
  spec : int array;  (* speculative slots of each held [Issue], in order *)
  mutable issues : int;  (* [Issue] events read so far *)
  mutable region : Pcode.region option;  (* from the last [Region_enter] *)
  mutable pc : int;  (* bundle index of the next [Issue] *)
}

(* The speculative slot count of every [Issue] in the ring: its
   [Op_issue] events follow it, so a first pass tallies them. *)
let spec_counts ring =
  let n = ref 0 in
  Events.iter ring (fun _ kind _ _ -> if kind = Events.Issue then incr n);
  let spec = Array.make !n 0 and i = ref (-1) in
  Events.iter ring (fun _ kind _ b ->
      if kind = Events.Issue then incr i
      else if kind = Events.Op_issue && !i >= 0 && b land 1 = 1 then
        spec.(!i) <- spec.(!i) + 1);
  spec

(* Buffer traffic, faults, region entries and wholesale invalidation
   squashes stay in the ring; the timeline shows the rest. *)
let shown (kind : Events.kind) b =
  match kind with
  | Events.(Shadow_squash | Sb_squash) -> b = 0
  | Events.(
      ( Region_enter | Shadow_write | Sb_append | Sb_forward | Sb_flush
      | Fault_deferred | Fault_raised | Rob_commit | Rob_squash )) ->
      false
  | _ -> true

(* [walk ~model code ring f] calls [f cur cycle kind a b] on each shown
   event, oldest first, with [cur] placing it in its region and bundle.
   Events held before the first [Region_enter] (a ring that overflowed
   lost the run's start) cannot be placed and are skipped. *)
let walk ~model code ring f =
  let cur =
    { model; ring; spec = spec_counts ring; issues = 0; region = None; pc = 0 }
  in
  Events.iter ring (fun cycle kind a b ->
      if kind = Events.Region_enter then begin
        cur.region <- Some (Pcode.find_region code (Events.name ring a));
        cur.pc <- 0
      end
      else begin
        if kind = Events.Recovery_start then cur.pc <- 0;
        if cur.region <> None && shown kind b then f cur cycle kind a b;
        if kind = Events.Issue then begin
          cur.pc <- cur.pc + 1;
          cur.issues <- cur.issues + 1
        end
      end)

let region_name cur = Label.name (Option.get cur.region).Pcode.name

let slot_of cur ~a ~b =
  Pcode.bundle_op (Option.get cur.region) ~bundle:a ~slot:(b / 2)

let line cur (kind : Events.kind) a b =
  match kind with
  | Events.Issue ->
      Printf.sprintf "issue %s[%d]: %d ops (%d spec, %d squashed)"
        (region_name cur) cur.pc a cur.spec.(cur.issues) b
  | Events.Op_issue ->
      let op = (slot_of cur ~a ~b).Pcode.op in
      Format.asprintf "op%s %a (latency %d)"
        (if b land 1 = 1 then ".s" else "")
        Instr.pp_op op
        (Machine_model.latency cur.model op)
  | Events.Stall ->
      if a = 0 then "stall: shadow conflict" else "stall: store buffer full"
  | Events.Region_exit ->
      "exit -> " ^ if b < 0 then "halt" else Events.name cur.ring b
  | Events.Recovery_start -> "exception detected"
  | Events.Recovery_end -> "recovery done"
  | Events.(Pred_true | Pred_false) ->
      Format.asprintf "%a := %b" Cond.pp (Cond.make a) (kind = Events.Pred_true)
  | Events.Shadow_commit -> Format.asprintf "commit %a" Reg.pp (Reg.make a)
  | Events.Shadow_squash -> Format.asprintf "squash %a" Reg.pp (Reg.make a)
  | Events.Sb_commit -> Printf.sprintf "commit sb@%d" a
  | Events.Sb_squash -> Printf.sprintf "squash sb@%d" a
  | Events.Sb_occupancy -> Printf.sprintf "sb occupancy %d" a
  | _ -> Events.kind_name kind

let iter_lines ~model code ring f =
  walk ~model code ring (fun cur cycle kind a b -> f cycle (line cur kind a b))

(* ----- the trace document ----- *)

type t = {
  sink : Trace_event.t;
  model : Machine_model.t;
  mutable truncated : bool;
  (* functional-unit lane assignment: ops within one cycle fill lanes of
     their unit class in issue order *)
  mutable lane_cycle : int;
  lanes : int array;  (* per unit class, next free lane this cycle *)
  mutable recovery_start : int;
  (* cumulative commit/squash counters rendered as Perfetto counter
     tracks: the slopes make squash-heavy phases visible at a glance *)
  mutable spec_commits : int;
  mutable spec_squashes : int;
}

let class_index = function
  | Machine_model.Alu_unit -> 0
  | Machine_model.Branch_unit -> 1
  | Machine_model.Load_unit -> 2
  | Machine_model.Store_unit -> 3

let class_prefix = [| "alu"; "br"; "ld"; "st" |]
let track t sort name = Trace_event.track t.sink ~sort_index:sort name
let issue_track t = track t 1 "issue"
let sb_track t = track t 80 "store-buffer"
let truncated t = t.truncated

let count t cycle ~commit =
  if commit then begin
    t.spec_commits <- t.spec_commits + 1;
    Trace_event.counter t.sink ~name:"spec-commits" ~ts:cycle
      ~value:t.spec_commits
  end
  else begin
    t.spec_squashes <- t.spec_squashes + 1;
    Trace_event.counter t.sink ~name:"spec-squashes" ~ts:cycle
      ~value:t.spec_squashes
  end

let render t cur cycle (kind : Events.kind) a b =
  let instant track =
    Trace_event.instant t.sink track ~name:(line cur kind a b) ~ts:cycle ()
  in
  match kind with
  | Events.Issue ->
      let region = region_name cur in
      Trace_event.span t.sink (issue_track t)
        ~name:(Printf.sprintf "%s[%d]" region cur.pc)
        ~ts:cycle ~dur:1
        ~args:
          [
            ("region", Json.String region);
            ("pc", Json.Int cur.pc);
            ("ops", Json.Int a);
            ("squashed", Json.Int b);
            ("spec", Json.Int cur.spec.(cur.issues));
          ]
        ()
  | Events.Op_issue ->
      if cycle <> t.lane_cycle then begin
        t.lane_cycle <- cycle;
        Array.fill t.lanes 0 (Array.length t.lanes) 0
      end;
      let pi = slot_of cur ~a ~b and spec = b land 1 = 1 in
      let c = class_index (Machine_model.unit_of_op pi.Pcode.op) in
      let lane = t.lanes.(c) in
      t.lanes.(c) <- lane + 1;
      Trace_event.span t.sink
        (track t (10 + (10 * c) + lane) (class_prefix.(c) ^ string_of_int lane))
        ~name:
          (Format.asprintf "%a%s" Instr.pp_op pi.Pcode.op
             (if spec then " .s" else ""))
        ~ts:cycle
        ~dur:(Machine_model.latency t.model pi.Pcode.op)
        ~args:
          [
            ("pred", Json.String (Format.asprintf "%a" Pred.pp pi.Pcode.pred));
            ("spec", Json.Bool spec);
          ]
        ()
  | Events.(Stall | Region_exit) -> instant (issue_track t)
  | Events.Recovery_start ->
      t.recovery_start <- cycle;
      instant (track t 50 "recovery")
  | Events.Recovery_end ->
      Trace_event.span t.sink (track t 50 "recovery") ~name:"recovery"
        ~ts:t.recovery_start ~dur:(cycle - t.recovery_start) ()
  | Events.(Pred_true | Pred_false) -> instant (track t 60 "ccr")
  | Events.(Shadow_commit | Shadow_squash) ->
      count t cycle ~commit:(kind = Events.Shadow_commit);
      instant (track t 70 "shadow-regfile")
  | Events.(Sb_commit | Sb_squash) ->
      count t cycle ~commit:(kind = Events.Sb_commit);
      instant (sb_track t)
  | Events.Sb_occupancy ->
      ignore (sb_track t);
      Trace_event.counter t.sink ~name:"sb-occupancy" ~ts:cycle ~value:a
  | _ -> ()

let of_events ?(limit = 2_000_000) ~model code ring =
  let t =
    {
      sink = Trace_event.create ~process_name:"psb-vliw" ();
      model;
      truncated = Events.dropped ring > 0;
      lane_cycle = -1;
      lanes = Array.make 4 0;
      recovery_start = 0;
      spec_commits = 0;
      spec_squashes = 0;
    }
  in
  walk ~model code ring (fun cur cycle kind a b ->
      if Trace_event.num_events t.sink >= limit then t.truncated <- true
      else render t cur cycle kind a b);
  t

let to_json ?result t =
  let metadata =
    [
      ("issue_width", Json.Int t.model.Machine_model.issue_width);
      ("truncated", Json.Bool t.truncated);
    ]
    @
    match result with
    | None -> []
    | Some (r : Vliw_sim.result) ->
        [
          ( "outcome",
            Json.String (Format.asprintf "%a" Interp.pp_outcome r.Vliw_sim.outcome)
          );
          ("cycles", Json.Int r.Vliw_sim.cycles);
          ( "cycle_breakdown",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Int v))
                 (Vliw_sim.breakdown_fields r.Vliw_sim.breakdown)) );
        ]
  in
  Trace_event.to_json t.sink ~metadata ()
