open Psb_isa

type mode = Single | Infinite

type version = {
  value : int;
  pred : Pred.t;
  fault : Fault.t option;
  seqno : int; (* issue order, newest wins on reads *)
}

(* The file is a set of flat banks indexed by register: [seq] and
   [written] hold the sequential state. The Single model keeps its one
   buffered version in the [s_*] banks, valid while [s_live], so a
   buffered write allocates nothing; it stores the predicate and fault
   pointers only when they change, which a loop rewriting a register
   under the same predicate never does. [s_fault] is meaningful only
   while [s_live]. The Infinite model keeps [versions], newest first. *)
type t = {
  mode : mode;
  events : Psb_obs.Events.t option;
  mutable now : int; (* cycle stamp for emitted events, set by the sim *)
  seq : int array;
  written : bool array;
  s_live : bool array;
  s_value : int array;
  s_pred : Pred.t array;
  s_fault : Fault.t option array;
  versions : version list array;
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
  let n = max nregs 1 in
  {
    mode;
    events;
    now = 0;
    seq = Array.make n 0;
    written = Array.make n false;
    s_live = Array.make n false;
    s_value = Array.make n 0;
    s_pred = Array.make n Pred.always;
    s_fault = Array.make n None;
    versions = Array.make n [];
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

let nregs t = Array.length t.seq
let mode t = t.mode
let set_now t cycle = t.now <- cycle
let values t = t.seq

let ev t kind a b =
  match t.events with
  | None -> ()
  | Some e -> Psb_obs.Events.emit e ~cycle:t.now kind ~a ~b

let read_seq t r = t.seq.(r)

let none = { value = 0; pred = Pred.always; fault = None; seqno = -1 }

(* The Infinite model's version a reader with predicate [pred] should
   see: the newest one whose predicate is not on a mutually-exclusive
   path, or [none]. *)
let rec pick_version vs pred =
  match vs with
  | [] -> none
  | v :: rest -> if Pred.disjoint v.pred pred then pick_version rest pred else v

let read t r ~shadow ~pred =
  if not shadow then t.seq.(r)
  else
    match t.mode with
    | Single ->
        if t.s_live.(r) && not (Pred.disjoint t.s_pred.(r) pred) then t.s_value.(r)
        else t.seq.(r)
    | Infinite ->
        let v = pick_version t.versions.(r) pred in
        if v != none then v.value else t.seq.(r)

let write_seq t r v =
  t.seq.(r) <- v;
  t.written.(r) <- true

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

let rec split_same pred = function
  | [] -> (none, [])
  | v :: rest ->
      if Pred.equal v.pred pred then (v, rest)
      else
        let same, rest' = split_same pred rest in
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

(* The Single model's version of [r] becomes ([value], [pred], [fault]). *)
let store t r value pred fault =
  t.s_value.(r) <- value;
  if t.s_pred.(r) != pred then t.s_pred.(r) <- pred;
  if fault != None || t.s_fault.(r) != None then t.s_fault.(r) <- fault

let write_spec t r value ~pred ~fault =
  t.spec_writes <- t.spec_writes + 1;
  ev t Psb_obs.Events.Shadow_write r value;
  let seqno = t.next_seqno in
  t.next_seqno <- seqno + 1;
  match t.mode with
  | Infinite ->
      (* at most one version per predicate *)
      let same, rest = split_same pred t.versions.(r) in
      let fault =
        if same == none then fault
        else begin
          t.live <- t.live - 1;
          t.faults <- t.faults - count_fault same.fault;
          merge_fault same.fault fault
        end
      in
      t.versions.(r) <- { value; pred; fault; seqno } :: rest;
      note_live t r;
      t.live <- t.live + 1;
      t.faults <- t.faults + count_fault fault;
      `Ok
  | Single ->
      if not t.s_live.(r) then begin
        store t r value pred fault;
        t.s_live.(r) <- true;
        note_live t r;
        t.live <- t.live + 1;
        t.faults <- t.faults + count_fault fault;
        `Ok
      end
      else if Pred.equal t.s_pred.(r) pred then begin
        let old = t.s_fault.(r) in
        let fault = merge_fault old fault in
        store t r value pred fault;
        t.faults <- t.faults - count_fault old + count_fault fault;
        `Ok
      end
      else begin
        t.conflicts <- t.conflicts + 1;
        `Conflict
      end

let committing_exceptions t lookup =
  if t.faults = 0 then []
  else begin
    let commits pred = Pred.eval pred lookup = Pred.True in
    let acc = ref [] in
    for i = Array.length t.seq - 1 downto 0 do
      match t.mode with
      | Single -> (
          if t.s_live.(i) then
            match t.s_fault.(i) with
            | Some f when commits t.s_pred.(i) -> acc := (i, f) :: !acc
            | Some _ | None -> ())
      | Infinite ->
          acc :=
            List.fold_right
              (fun v acc ->
                match v.fault with
                | Some f when commits v.pred -> (i, f) :: acc
                | Some _ | None -> acc)
              t.versions.(i) !acc
    done;
    !acc
  end

(* Evaluate a version's predicate once. One whose mask meets none of the
   conditions written since the last tick ([dirty]) is still Unspec —
   the gating invariant: every buffered version was Unspec when last
   examined (speculative writes only buffer on Unspec), and only a write
   to a mentioned condition can change that. *)
let decide t ccr ~dirty (p : Pred.t) =
  if p.Pred.mask land dirty = 0 then begin
    t.tick_skipped <- t.tick_skipped + 1;
    Pred.Unspec
  end
  else begin
    t.tick_examined <- t.tick_examined + 1;
    Ccr.evalc ccr p
  end

let commit_value t idx fault value =
  (match fault with Some _ -> assert false | None -> ());
  t.commits <- t.commits + 1;
  ev t Psb_obs.Events.Shadow_commit idx value;
  write_seq t idx value

(* The versions of one register in the Infinite model. Commits are
   processed oldest-first so that if several versions commit in one
   cycle (a possible WAW), the newest wins. *)
let tick_versions t ccr ~dirty idx =
  let committing = ref [] and keep_rev = ref [] in
  let squashed = ref 0 in
  List.iter
    (fun v ->
      match decide t ccr ~dirty v.pred with
      | Pred.True -> committing := v :: !committing
      | Pred.False ->
          squashed := !squashed + 1;
          ev t Psb_obs.Events.Shadow_squash idx 0;
          t.faults <- t.faults - count_fault v.fault
      | Pred.Unspec -> keep_rev := v :: !keep_rev)
    t.versions.(idx);
  List.iter
    (fun v -> commit_value t idx v.fault v.value)
    (List.sort (fun a b -> Int.compare a.seqno b.seqno) !committing);
  t.squashes <- t.squashes + !squashed;
  t.live <- t.live - List.length !committing - !squashed;
  t.versions.(idx) <- List.rev !keep_rev

let tick ~dirty t ccr =
  if t.live > 0 then begin
    (match t.mode with
    | Single ->
        (* decide in place, allocating nothing *)
        for idx = t.lo to t.hi do
          if t.s_live.(idx) then
            match decide t ccr ~dirty t.s_pred.(idx) with
            | Pred.Unspec -> ()
            | Pred.True ->
                commit_value t idx t.s_fault.(idx) t.s_value.(idx);
                t.s_live.(idx) <- false;
                t.live <- t.live - 1
            | Pred.False ->
                t.squashes <- t.squashes + 1;
                ev t Psb_obs.Events.Shadow_squash idx 0;
                t.faults <- t.faults - count_fault t.s_fault.(idx);
                t.s_live.(idx) <- false;
                t.live <- t.live - 1
        done
    | Infinite ->
        for idx = t.lo to t.hi do
          match t.versions.(idx) with
          | [] -> ()
          | _ :: _ -> tick_versions t ccr ~dirty idx
        done);
    check_empty t
  end

let invalidate_spec t =
  if t.live > 0 then begin
    for idx = t.lo to t.hi do
      if t.s_live.(idx) then begin
        ev t Psb_obs.Events.Shadow_squash idx 1;
        t.s_live.(idx) <- false
      end;
      match t.versions.(idx) with
      | [] -> ()
      | vs ->
          List.iter (fun _ -> ev t Psb_obs.Events.Shadow_squash idx 1) vs;
          t.versions.(idx) <- []
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
  let live = ref 0 and faults = ref 0 in
  for i = 0 to Array.length t.seq - 1 do
    if t.s_live.(i) then begin
      incr live;
      faults := !faults + count_fault t.s_fault.(i)
    end;
    List.iter
      (fun v ->
        incr live;
        faults := !faults + count_fault v.fault)
      t.versions.(i)
  done;
  (!live, !faults)

let final_state t =
  let m = ref Reg.Map.empty in
  for i = Array.length t.seq - 1 downto 0 do
    if t.written.(i) then m := Reg.Map.add (Reg.make i) t.seq.(i) !m
  done;
  !m
