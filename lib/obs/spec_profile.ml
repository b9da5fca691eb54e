type card = {
  region : string;
  mutable visits : int;
  mutable cycles : int;
  mutable useful : int;
  mutable wasted : int;
  mutable preds_true : int;
  mutable preds_false : int;
  mutable spec_writes : int;
  mutable shadow_commits : int;
  mutable shadow_squashes : int;
  mutable shadow_invalidated : int;
  mutable sb_appends : int;
  mutable sb_spec_appends : int;
  mutable sb_forwards : int;
  mutable sb_commits : int;
  mutable sb_squashes : int;
  mutable sb_invalidated : int;
  mutable sb_flushes : int;
  mutable faults_deferred : int;
  mutable faults_raised : int;
  mutable rob_commits : int;
  mutable rob_squashes : int;
  shadow_lifetime : Metrics.histogram;
  sb_dwell : Metrics.histogram;
}

type t = {
  total_cycles : int;
  dropped : int;
  mutable cards_rev : card list;
  by_name : (string, card) Hashtbl.t;
  metrics : Metrics.t;
}

let lifetime_buckets = [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128. ]

let new_card t region =
  let labels = [ ("region", region) ] in
  let card =
    {
      region;
      visits = 0;
      cycles = 0;
      useful = 0;
      wasted = 0;
      preds_true = 0;
      preds_false = 0;
      spec_writes = 0;
      shadow_commits = 0;
      shadow_squashes = 0;
      shadow_invalidated = 0;
      sb_appends = 0;
      sb_spec_appends = 0;
      sb_forwards = 0;
      sb_commits = 0;
      sb_squashes = 0;
      sb_invalidated = 0;
      sb_flushes = 0;
      faults_deferred = 0;
      faults_raised = 0;
      rob_commits = 0;
      rob_squashes = 0;
      shadow_lifetime =
        Metrics.histogram t.metrics ~labels ~buckets:lifetime_buckets
          "spec_shadow_lifetime_cycles";
      sb_dwell =
        Metrics.histogram t.metrics ~labels ~buckets:lifetime_buckets
          "spec_sb_dwell_cycles";
    }
  in
  t.cards_rev <- card :: t.cards_rev;
  Hashtbl.replace t.by_name region card;
  card

let get_card t region =
  match Hashtbl.find_opt t.by_name region with
  | Some c -> c
  | None -> new_card t region

let of_events ~total_cycles events =
  let t =
    {
      total_cycles;
      dropped = Events.dropped events;
      cards_rev = [];
      by_name = Hashtbl.create 8;
      metrics = Metrics.create ();
    }
  in
  (* The fold's running state. [cur] is the region owning events right
     now — it changes on [Region_enter] only, so a region keeps owning
     its transition-out (and any trailing drain) until the next region
     starts, which is what makes residencies telescope to the total. *)
  let cur = ref None in
  let enter_cycle = ref 0 in
  (* A normal-mode bundle with zero executed slots is still useful when
     its exit fired; the exit shows up as a same-cycle [Region_exit]
     later in the stream, so the classification of an [Issue] is held
     until an event from a later cycle (or the exit) settles it. *)
  let pending_issue = ref None (* (card, cycle, executed) *) in
  (* Recovery-mode bundles re-execute work already counted; the machine
     charges their cycles to recovery, so the fold skips their [Issue]
     events. *)
  let recovering = ref false in
  let settle_issue ~useful =
    match !pending_issue with
    | None -> ()
    | Some (card, _, executed) ->
        if useful || executed > 0 then card.useful <- card.useful + 1
        else card.wasted <- card.wasted + 1;
        pending_issue := None
  in
  (* Open-value tracking for the lifetime histograms: last speculative
     write cycle per register, append cycles per address (FIFO — the
     store buffer resolves same-address entries oldest-first). *)
  let shadow_open = Hashtbl.create 32 in
  let sb_open = Hashtbl.create 32 in
  let sb_pop addr =
    match Hashtbl.find_opt sb_open addr with
    | Some (c :: rest) ->
        (if rest = [] then Hashtbl.remove sb_open addr
         else Hashtbl.replace sb_open addr rest);
        Some c
    | Some [] | None -> None
  in
  Events.iter events (fun cycle kind a b ->
      (match !pending_issue with
      | Some (_, c, _) when cycle > c -> settle_issue ~useful:false
      | _ -> ());
      let card () =
        match !cur with
        | Some c -> c
        | None ->
            (* Stream did not start with a Region_enter (truncated ring):
               attribute to a synthetic card; reconciliation will fail on
               [dropped] anyway. *)
            let c = get_card t "<orphan>" in
            cur := Some c;
            c
      in
      match (kind : Events.kind) with
      | Events.Region_enter ->
          (match !cur with
          | Some prev -> prev.cycles <- prev.cycles + (cycle - !enter_cycle)
          | None -> ());
          let c = get_card t (Events.name events a) in
          c.visits <- c.visits + 1;
          cur := Some c;
          enter_cycle := cycle
      | Events.Region_exit ->
          (match !pending_issue with
          | Some (_, c, _) when c = cycle -> settle_issue ~useful:true
          | _ -> ());
          ignore (card ())
      | Events.Issue ->
          if not !recovering then pending_issue := Some (card (), cycle, a)
      | Events.Recovery_start -> recovering := true
      | Events.Recovery_end -> recovering := false
      | Events.Op_issue | Events.Stall | Events.Sb_occupancy -> ()
      | Events.Pred_true ->
          let c = card () in
          c.preds_true <- c.preds_true + 1
      | Events.Pred_false ->
          let c = card () in
          c.preds_false <- c.preds_false + 1
      | Events.Shadow_write ->
          let c = card () in
          c.spec_writes <- c.spec_writes + 1;
          Hashtbl.replace shadow_open a cycle
      | Events.Shadow_commit | Events.Shadow_squash ->
          let c = card () in
          (if kind = Events.Shadow_commit then
             c.shadow_commits <- c.shadow_commits + 1
           else if b = 0 then c.shadow_squashes <- c.shadow_squashes + 1
           else c.shadow_invalidated <- c.shadow_invalidated + 1);
          (match Hashtbl.find_opt shadow_open a with
          | Some wc ->
              Hashtbl.remove shadow_open a;
              Metrics.observe c.shadow_lifetime (float_of_int (cycle - wc))
          | None -> ())
      | Events.Sb_append ->
          let c = card () in
          c.sb_appends <- c.sb_appends + 1;
          if b = 1 then c.sb_spec_appends <- c.sb_spec_appends + 1;
          let tail =
            Option.value (Hashtbl.find_opt sb_open a) ~default:[]
          in
          Hashtbl.replace sb_open a (tail @ [ cycle ])
      | Events.Sb_forward ->
          let c = card () in
          c.sb_forwards <- c.sb_forwards + 1
      | Events.Sb_commit ->
          let c = card () in
          c.sb_commits <- c.sb_commits + 1
      | Events.Sb_flush | Events.Sb_squash ->
          let c = card () in
          (if kind = Events.Sb_flush then c.sb_flushes <- c.sb_flushes + 1
           else if b = 0 then c.sb_squashes <- c.sb_squashes + 1
           else c.sb_invalidated <- c.sb_invalidated + 1);
          (match sb_pop a with
          | Some ac -> Metrics.observe c.sb_dwell (float_of_int (cycle - ac))
          | None -> ())
      | Events.Fault_deferred ->
          let c = card () in
          c.faults_deferred <- c.faults_deferred + 1
      | Events.Fault_raised ->
          let c = card () in
          c.faults_raised <- c.faults_raised + 1
      | Events.Rob_commit ->
          let c = card () in
          c.rob_commits <- c.rob_commits + 1
      | Events.Rob_squash ->
          let c = card () in
          c.rob_squashes <- c.rob_squashes + 1);
  settle_issue ~useful:false;
  (match !cur with
  | Some last -> last.cycles <- last.cycles + (total_cycles - !enter_cycle)
  | None -> ());
  t

let cards t = List.rev t.cards_rev
let find t region = Hashtbl.find_opt t.by_name region
let total_cycles t = t.total_cycles
let dropped t = t.dropped

let attributed_cycles t =
  List.fold_left (fun acc c -> acc + c.cycles) 0 t.cards_rev

let reconciles t = t.dropped = 0 && attributed_cycles t = t.total_cycles

let commit_total t =
  List.fold_left
    (fun acc c -> acc + c.shadow_commits + c.sb_commits + c.rob_commits)
    0 t.cards_rev

let squash_rate c =
  let squashed =
    c.shadow_squashes + c.shadow_invalidated + c.sb_squashes + c.sb_invalidated
    + c.rob_squashes
  in
  let resolved =
    squashed + c.shadow_commits + c.sb_commits + c.rob_commits
  in
  if resolved = 0 then 0. else float_of_int squashed /. float_of_int resolved

let metrics t = t.metrics

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "%-14s %6s %9s %8s %7s %7s %8s %8s %7s %6s %6s %6s %7s@," "region"
    "visits" "cycles" "useful" "wasted" "sq-rate" "shw-wr" "commits"
    "squash" "sb-app" "sb-fwd" "flush" "faults";
  List.iter
    (fun c ->
      Format.fprintf ppf
        "%-14s %6d %9d %8d %7d %6.1f%% %8d %8d %7d %6d %6d %6d %3d/%-3d@,"
        c.region c.visits c.cycles c.useful c.wasted
        (100. *. squash_rate c)
        c.spec_writes
        (c.shadow_commits + c.sb_commits + c.rob_commits)
        (c.shadow_squashes + c.shadow_invalidated + c.sb_squashes
       + c.sb_invalidated + c.rob_squashes)
        c.sb_appends c.sb_forwards c.sb_flushes c.faults_deferred
        c.faults_raised)
    (cards t);
  let q h p = Option.value (Metrics.histogram_quantile h p) ~default:Float.nan in
  List.iter
    (fun c ->
      if Metrics.histogram_count c.shadow_lifetime > 0 then
        Format.fprintf ppf
          "%-14s shadow lifetime p50=%g p90=%g p99=%g (n=%d)@," c.region
          (q c.shadow_lifetime 0.5) (q c.shadow_lifetime 0.9)
          (q c.shadow_lifetime 0.99)
          (Metrics.histogram_count c.shadow_lifetime);
      if Metrics.histogram_count c.sb_dwell > 0 then
        Format.fprintf ppf "%-14s sb dwell        p50=%g p90=%g p99=%g (n=%d)@,"
          c.region (q c.sb_dwell 0.5) (q c.sb_dwell 0.9) (q c.sb_dwell 0.99)
          (Metrics.histogram_count c.sb_dwell))
    (cards t);
  if reconciles t then
    Format.fprintf ppf
      "reconciled: %d region cycles = %d machine cycles, 0 dropped events@]"
      (attributed_cycles t) t.total_cycles
  else
    Format.fprintf ppf
      "NOT reconciled: %d region cycles vs %d machine cycles, %d dropped \
       events@]"
      (attributed_cycles t) t.total_cycles t.dropped

let hist_json h =
  let quantile p =
    match Metrics.histogram_quantile h p with
    | None -> Json.Null
    | Some v -> Json.Float v
  in
  Json.obj
    [
      ("count", Json.Int (Metrics.histogram_count h));
      ("sum", Json.Float (Metrics.histogram_sum h));
      ("mean", Json.Float (Metrics.histogram_mean h));
      ("p50", quantile 0.5);
      ("p90", quantile 0.9);
      ("p99", quantile 0.99);
    ]

let to_json t =
  let region_json c =
    Json.obj
      [
        ("region", Json.String c.region);
        ("visits", Json.Int c.visits);
        ("cycles", Json.Int c.cycles);
        ("useful_issue_cycles", Json.Int c.useful);
        ("wasted_issue_cycles", Json.Int c.wasted);
        ("squash_rate", Json.Float (squash_rate c));
        ("preds_true", Json.Int c.preds_true);
        ("preds_false", Json.Int c.preds_false);
        ("shadow_writes", Json.Int c.spec_writes);
        ("shadow_commits", Json.Int c.shadow_commits);
        ("shadow_squashes", Json.Int c.shadow_squashes);
        ("shadow_invalidated", Json.Int c.shadow_invalidated);
        ("sb_appends", Json.Int c.sb_appends);
        ("sb_spec_appends", Json.Int c.sb_spec_appends);
        ("sb_forwards", Json.Int c.sb_forwards);
        ("sb_commits", Json.Int c.sb_commits);
        ("sb_squashes", Json.Int c.sb_squashes);
        ("sb_invalidated", Json.Int c.sb_invalidated);
        ("sb_flushes", Json.Int c.sb_flushes);
        ("faults_deferred", Json.Int c.faults_deferred);
        ("faults_raised", Json.Int c.faults_raised);
        ("rob_commits", Json.Int c.rob_commits);
        ("rob_squashes", Json.Int c.rob_squashes);
        ("shadow_lifetime", hist_json c.shadow_lifetime);
        ("sb_dwell", hist_json c.sb_dwell);
      ]
  in
  Json.obj
    [
      ("total_cycles", Json.Int t.total_cycles);
      ("attributed_cycles", Json.Int (attributed_cycles t));
      ("dropped", Json.Int t.dropped);
      ("reconciles", Json.Bool (reconciles t));
      ("regions", Json.List (List.map region_json (cards t)));
    ]
