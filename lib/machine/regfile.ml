open Psb_isa

type mode = Single | Infinite

type version = {
  value : int;
  cpred : Pred.compiled;
  fault : Fault.t option;
  seqno : int; (* issue order, newest wins on reads *)
}

(* A register's buffered speculative state. The Single model keeps its
   one version in [single] ([none] when empty), so a buffered write costs
   one record; the Infinite model keeps [versions], newest first. *)
type entry = {
  mutable seq : int;
  mutable written : bool;
  mutable single : version;
  mutable versions : version list;
}

let none =
  { value = 0; cpred = Pred.compiled_always; fault = None; seqno = -1 }

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
  (* live-state tracking: [live] buffered versions in total (the tick and
     invalidation return immediately when none exist), [faults] of them
     carrying a buffered exception (detection walks nothing when zero). *)
  mutable live : int;
  mutable faults : int;
  (* registers [lo .. hi] hold every live version; empty when live = 0 *)
  mutable lo : int;
  mutable hi : int;
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
          { seq = 0; written = false; single = none; versions = [] });
    conflicts = 0;
    spec_writes = 0;
    commits = 0;
    squashes = 0;
    next_seqno = 0;
    live = 0;
    faults = 0;
    lo = max_int;
    hi = -1;
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

(* The speculative version a reader with predicate [cpred] should see:
   the newest version whose predicate is not on a mutually-exclusive
   path, or [none]. In the Single model there is at most one version. *)
let rec pick_version vs cpred =
  match vs with
  | [] -> none
  | v :: rest -> if Pred.disjoint_c v.cpred cpred then pick_version rest cpred else v

let pick e cpred =
  let v = e.single in
  if v != none then if Pred.disjoint_c v.cpred cpred then none else v
  else pick_version e.versions cpred

let read t r ~shadow ~cpred =
  let e = entry t r in
  if shadow then
    let v = pick e cpred in
    if v != none then v.value else e.seq
  else e.seq

let write_seq t r v =
  let e = entry t r in
  e.seq <- v;
  e.written <- true

let count_fault = function Some _ -> 1 | None -> 0

(* A same-predicate rewrite (speculative WAW on one path) takes the new
   value, but flag E is sticky: an outstanding exception buffered in the
   overwritten version must still be detected when the predicate commits
   — the excepting instruction's result may be dead, its exception is
   not. Recovery re-executes both instructions in order, so the final
   value regenerates correctly. The earliest fault wins, matching the
   order recovery would handle them. *)
let merge_fault old_fault fault =
  match old_fault with Some _ -> old_fault | None -> fault

let rec split_same cpred = function
  | [] -> (none, [])
  | v :: rest ->
      if Pred.equal_c v.cpred cpred then (v, rest)
      else
        let same, rest' = split_same cpred rest in
        (same, v :: rest')

(* Widen [lo .. hi] to cover register [i]. *)
let note_live t i =
  if i < t.lo then t.lo <- i;
  if i > t.hi then t.hi <- i

(* Once nothing is buffered the range is empty again. *)
let check_empty t =
  if t.live = 0 then begin
    t.lo <- max_int;
    t.hi <- -1
  end

let write_spec t r value ~cpred ~fault =
  let e = entry t r in
  t.spec_writes <- t.spec_writes + 1;
  ev t Psb_obs.Events.Shadow_write (Reg.index r) value;
  let seqno = t.next_seqno in
  t.next_seqno <- seqno + 1;
  match t.mode with
  | Infinite ->
      (* at most one version per predicate *)
      let same, rest = split_same cpred e.versions in
      let fault =
        if same == none then fault
        else begin
          t.live <- t.live - 1;
          t.faults <- t.faults - count_fault same.fault;
          merge_fault same.fault fault
        end
      in
      e.versions <- { value; cpred; fault; seqno } :: rest;
      note_live t (Reg.index r);
      t.live <- t.live + 1;
      t.faults <- t.faults + count_fault fault;
      `Ok
  | Single ->
      let v = e.single in
      if v == none then begin
        e.single <- { value; cpred; fault; seqno };
        note_live t (Reg.index r);
        t.live <- t.live + 1;
        t.faults <- t.faults + count_fault fault;
        `Ok
      end
      else if Pred.equal_c v.cpred cpred then begin
        let fault = merge_fault v.fault fault in
        e.single <- { value; cpred; fault; seqno };
        t.faults <- t.faults - count_fault v.fault + count_fault fault;
        `Ok
      end
      else begin
        t.conflicts <- t.conflicts + 1;
        `Conflict
      end

let versions e = if e.single != none then [ e.single ] else e.versions

let committing_exceptions t lookup =
  if t.faults = 0 then []
  else
    Array.to_seqi t.entries
    |> Seq.concat_map (fun (i, e) ->
           List.to_seq (versions e)
           |> Seq.filter_map (fun v ->
                  match v.fault with
                  | Some f when Pred.eval (Pred.source v.cpred) lookup = Pred.True ->
                      Some (Reg.make i, f)
                  | Some _ | None -> None))
    |> List.of_seq

(* Evaluate a version once. A version whose mask meets none of the
   conditions written since the last tick ([dirty]) is still Unspec —
   the gating invariant: every buffered version was Unspec when last
   examined (speculative writes only buffer on Unspec), and only a write
   to a mentioned condition can change that. *)
let decide t ccr ~dirty v =
  if v.cpred.Pred.c_wide = None && v.cpred.Pred.c_mask land dirty = 0 then begin
    t.tick_skipped <- t.tick_skipped + 1;
    Pred.Unspec
  end
  else begin
    t.tick_examined <- t.tick_examined + 1;
    Ccr.evalc ccr v.cpred
  end

let commit_value t idx e v =
  assert (v.fault = None);
  t.commits <- t.commits + 1;
  ev t Psb_obs.Events.Shadow_commit idx v.value;
  e.seq <- v.value;
  e.written <- true

(* The versions of one register in the Infinite model. Commits are
   processed oldest-first so that if several versions commit in one
   cycle (a possible WAW), the newest wins. *)
let tick_versions t ccr ~dirty idx e =
  let committing = ref [] and keep_rev = ref [] in
  let squashed = ref 0 in
  List.iter
    (fun v ->
      match decide t ccr ~dirty v with
      | Pred.True -> committing := v :: !committing
      | Pred.False ->
          squashed := !squashed + 1;
          ev t Psb_obs.Events.Shadow_squash idx 0;
          t.faults <- t.faults - count_fault v.fault
      | Pred.Unspec -> keep_rev := v :: !keep_rev)
    e.versions;
  List.iter (commit_value t idx e)
    (List.sort (fun a b -> compare a.seqno b.seqno) !committing);
  t.squashes <- t.squashes + !squashed;
  t.live <- t.live - List.length !committing - !squashed;
  e.versions <- List.rev !keep_rev

let tick ~dirty t ccr =
  if t.live > 0 then begin
    for idx = t.lo to t.hi do
      let e = t.entries.(idx) in
      let v = e.single in
      if v != none then begin
        (* the Single model: decide in place, allocating nothing *)
        match decide t ccr ~dirty v with
        | Pred.Unspec -> ()
        | Pred.True ->
            commit_value t idx e v;
            e.single <- none;
            t.live <- t.live - 1
        | Pred.False ->
            t.squashes <- t.squashes + 1;
            ev t Psb_obs.Events.Shadow_squash idx 0;
            t.faults <- t.faults - count_fault v.fault;
            e.single <- none;
            t.live <- t.live - 1
      end
      else if e.versions <> [] then tick_versions t ccr ~dirty idx e
    done;
    check_empty t
  end

let invalidate_spec t =
  if t.live > 0 then begin
    for idx = t.lo to t.hi do
      let e = t.entries.(idx) in
      if e.single != none then begin
        ev t Psb_obs.Events.Shadow_squash idx 1;
        e.single <- none
      end;
      if e.versions <> [] then begin
        List.iter (fun _ -> ev t Psb_obs.Events.Shadow_squash idx 1) e.versions;
        e.versions <- []
      end
    done;
    t.live <- 0;
    t.faults <- 0;
    check_empty t
  end

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
      let vs = versions e in
      ( live + List.length vs,
        faults + List.length (List.filter (fun v -> v.fault <> None) vs) ))
    (0, 0) t.entries

let final_state t =
  Array.to_seqi t.entries
  |> Seq.filter (fun (_, e) -> e.written)
  |> Seq.fold_left (fun m (i, e) -> Reg.Map.add (Reg.make i) e.seq m) Reg.Map.empty
