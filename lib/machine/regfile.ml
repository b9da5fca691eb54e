open Psb_isa

type mode = Single | Infinite

type version = {
  value : int;
  cpred : Pred.compiled;
  fault : Fault.t option;
  seqno : int; (* issue order, newest wins on reads *)
}

type entry = {
  mutable seq : int;
  mutable written : bool;
  mutable versions : version list; (* valid speculative versions, newest first *)
}

type t = {
  mode : mode;
  events : Psb_obs.Events.t option;
  mutable now : int; (* cycle stamp for emitted events, set by the sim *)
  entries : entry array;
  mutable conflicts : int;
  mutable spec_writes : int;
  mutable commits : int;
  mutable squashes : int;
  mutable next_seqno : int;
  (* live-state tracking: [live] buffered versions in total (the tick
     returns immediately when none exist), [faults] of them carrying a
     buffered exception (detection walks nothing when zero). *)
  mutable live : int;
  mutable faults : int;
  (* tick accounting for lib/obs *)
  mutable tick_examined : int;
  mutable tick_skipped : int;
}

let create ?(mode = Single) ?events ~nregs () =
  {
    mode;
    events;
    now = 0;
    entries =
      Array.init (max nregs 1) (fun _ ->
          { seq = 0; written = false; versions = [] });
    conflicts = 0;
    spec_writes = 0;
    commits = 0;
    squashes = 0;
    next_seqno = 0;
    live = 0;
    faults = 0;
    tick_examined = 0;
    tick_skipped = 0;
  }

let nregs t = Array.length t.entries
let mode t = t.mode
let set_now t cycle = t.now <- cycle

let ev t kind a b =
  match t.events with
  | None -> ()
  | Some e -> Psb_obs.Events.emit e ~cycle:t.now kind ~a ~b
let entry t r = t.entries.(Reg.index r)
let read_seq t r = (entry t r).seq

let vpred v = Pred.source v.cpred

(* Pick the speculative version a reader with predicate [pred] should see:
   the newest version whose predicate is not on a mutually-exclusive path.
   In the Single model there is at most one version. *)
let pick_version e ~pred =
  List.find_opt (fun v -> not (Pred.disjoint (vpred v) pred)) e.versions

let read t r ~shadow ~pred =
  let e = entry t r in
  if shadow then
    match pick_version e ~pred with Some v -> v.value | None -> e.seq
  else e.seq

let read_fault t r ~shadow ~pred =
  let e = entry t r in
  if shadow then
    match pick_version e ~pred with Some v -> v.fault | None -> None
  else None

let write_seq t r v =
  let e = entry t r in
  e.seq <- v;
  e.written <- true

let count_fault = function Some _ -> 1 | None -> 0

let write_spec t r value ~cpred ~fault =
  let e = entry t r in
  t.spec_writes <- t.spec_writes + 1;
  ev t Psb_obs.Events.Shadow_write (Reg.index r) value;
  (* A same-predicate rewrite (speculative WAW on one path) takes the new
     value, but flag E is sticky: an outstanding exception buffered in the
     overwritten version must still be detected when the predicate commits
     — the excepting instruction's result may be dead, its exception is
     not. Recovery re-executes both instructions in order, so the final
     value regenerates correctly. The earliest fault wins, matching the
     order recovery would handle them. *)
  let merge_fault old_fault =
    match old_fault with Some f -> Some f | None -> fault
  in
  let pred = Pred.source cpred in
  let fresh = { value; cpred; fault; seqno = t.next_seqno } in
  t.next_seqno <- t.next_seqno + 1;
  match t.mode with
  | Infinite ->
      let same, rest =
        List.partition (fun v -> Pred.equal (vpred v) pred) e.versions
      in
      let fresh =
        match same with
        | v :: _ ->
            t.live <- t.live - 1;
            t.faults <- t.faults - count_fault v.fault;
            { fresh with fault = merge_fault v.fault }
        | [] -> fresh
      in
      e.versions <- fresh :: rest;
      t.live <- t.live + 1;
      t.faults <- t.faults + count_fault fresh.fault;
      `Ok
  | Single -> (
      match e.versions with
      | [] ->
          e.versions <- [ fresh ];
          t.live <- t.live + 1;
          t.faults <- t.faults + count_fault fresh.fault;
          `Ok
      | [ v ] when Pred.equal (vpred v) pred ->
          let fresh = { fresh with fault = merge_fault v.fault } in
          e.versions <- [ fresh ];
          t.faults <- t.faults - count_fault v.fault + count_fault fresh.fault;
          `Ok
      | _ ->
          t.conflicts <- t.conflicts + 1;
          `Conflict)

let committing_exceptions t lookup =
  if t.faults = 0 then []
  else
    Array.to_seqi t.entries
    |> Seq.concat_map (fun (i, e) ->
           List.to_seq e.versions
           |> Seq.filter_map (fun v ->
                  match v.fault with
                  | Some f when Pred.eval (vpred v) lookup = Pred.True ->
                      Some (Reg.make i, f)
                  | Some _ | None -> None))
    |> List.of_seq

let tick ?(dirty = -1) t ccr =
  if t.live = 0 then []
  else begin
    let events = ref [] in
    Array.iteri
      (fun idx e ->
        if e.versions <> [] then begin
          (* Evaluate each version exactly once. A version whose mask
             meets none of the conditions written since the last tick
             ([dirty]) is still Unspec — the gating invariant: every
             buffered version was Unspec when last examined (speculative
             writes only buffer on Unspec), and only a write to a
             mentioned condition can change that. *)
          let value v =
            if v.cpred.Pred.c_wide = None && v.cpred.Pred.c_mask land dirty = 0
            then begin
              t.tick_skipped <- t.tick_skipped + 1;
              Pred.Unspec
            end
            else begin
              t.tick_examined <- t.tick_examined + 1;
              Ccr.evalc ccr v.cpred
            end
          in
          match e.versions with
          | [ v ] -> (
              (* At most one version (always, in the Single model): decide
                 in place, allocating nothing while it stays Unspec — the
                 overwhelmingly common per-cycle outcome. *)
              match value v with
              | Pred.Unspec -> ()
              | Pred.True ->
                  assert (v.fault = None);
                  t.commits <- t.commits + 1;
                  ev t Psb_obs.Events.Shadow_commit idx v.value;
                  e.seq <- v.value;
                  e.written <- true;
                  e.versions <- [];
                  t.live <- t.live - 1;
                  events := (Reg.make idx, `Commit) :: !events
              | Pred.False ->
                  t.squashes <- t.squashes + 1;
                  ev t Psb_obs.Events.Shadow_squash idx 0;
                  t.faults <- t.faults - count_fault v.fault;
                  e.versions <- [];
                  t.live <- t.live - 1;
                  events := (Reg.make idx, `Squash) :: !events)
          | versions ->
              (* Commits are processed oldest-first so that if several
                 versions of the same register commit in one cycle (compiler
                 bug in the Single model, possible WAW in Infinite), the
                 newest wins. *)
              let committing = ref [] and keep_rev = ref [] in
              let squashed = ref 0 in
              List.iter
                (fun v ->
                  match value v with
                  | Pred.True -> committing := v :: !committing
                  | Pred.False ->
                      squashed := !squashed + 1;
                      ev t Psb_obs.Events.Shadow_squash idx 0;
                      t.faults <- t.faults - count_fault v.fault
                  | Pred.Unspec -> keep_rev := v :: !keep_rev)
                versions;
              (match
                 List.sort (fun a b -> compare a.seqno b.seqno) !committing
               with
              | [] -> ()
              | winners ->
                  List.iter
                    (fun v ->
                      assert (v.fault = None);
                      t.commits <- t.commits + 1;
                      ev t Psb_obs.Events.Shadow_commit idx v.value;
                      e.seq <- v.value;
                      e.written <- true)
                    winners;
                  events := (Reg.make idx, `Commit) :: !events);
              t.squashes <- t.squashes + !squashed;
              if !squashed > 0 then events := (Reg.make idx, `Squash) :: !events;
              t.live <- t.live - List.length !committing - !squashed;
              e.versions <- List.rev !keep_rev
        end)
      t.entries;
    List.rev !events
  end

let invalidate_spec t =
  (match t.events with
  | None -> ()
  | Some _ when t.live = 0 -> ()
  | Some _ ->
      Array.iteri
        (fun idx e ->
          List.iter (fun _ -> ev t Psb_obs.Events.Shadow_squash idx 1) e.versions)
        t.entries);
  Array.iter (fun e -> e.versions <- []) t.entries;
  t.live <- 0;
  t.faults <- 0

let has_spec t = t.live > 0
let conflicts t = t.conflicts
let spec_writes t = t.spec_writes
let commits t = t.commits
let squashes t = t.squashes
let buffered_faults t = t.faults
let tick_examined t = t.tick_examined
let tick_skipped t = t.tick_skipped

let debug_recount t =
  Array.fold_left
    (fun (live, faults) e ->
      ( live + List.length e.versions,
        faults
        + List.length (List.filter (fun v -> v.fault <> None) e.versions) ))
    (0, 0) t.entries

let final_state t =
  Array.to_seqi t.entries
  |> Seq.filter (fun (_, e) -> e.written)
  |> Seq.fold_left (fun m (i, e) -> Reg.Map.add (Reg.make i) e.seq m) Reg.Map.empty
