open Psb_isa

type entry = {
  addr : int;
  value : int;
  pred : Pred.t;
  mutable spec : bool; (* W *)
  mutable valid : bool; (* V *)
  mutable examined : bool;
      (* seen by at least one tick — a fresh entry may have been appended
         with an already-decided predicate, so it is never dirty-gated
         before its first examination *)
  fault : Fault.t option; (* E *)
}

(* A growable ring: [buf.(wrap (head + i))] for [i < count] are the live
   entries, oldest first. Appends are O(1) amortised (the old list
   representation paid an O(n) [entries @ [e]] per append), drains pop at
   the head, and iteration walks indices — no per-cycle allocation. *)
type t = {
  events : Psb_obs.Events.t option;
  mutable now : int; (* cycle stamp for emitted events, set by the sim *)
  mutable buf : entry array;
  mutable head : int;
  mutable count : int;
  mutable max_occupancy : int;
  mutable spec_appends : int;
  mutable commits : int;
  mutable squashes : int;
  (* live-state tracking, mirroring Regfile: [spec_live] entries still
     awaiting their predicate (tick returns immediately at zero),
     [faults] of them with a buffered exception. *)
  mutable spec_live : int;
  mutable faults : int;
  mutable dead : int; (* squashed entries still occupying the FIFO *)
  (* the entry the last forwarding hit read *)
  mutable fwd_value : int;
  mutable fwd_fault : Fault.t option;
  (* tick accounting for lib/obs *)
  mutable tick_examined : int;
  mutable tick_skipped : int;
}

let dummy =
  {
    addr = 0;
    value = 0;
    pred = Pred.always;
    spec = false;
    valid = false;
    examined = true;
    fault = None;
  }

let initial_capacity = 16

let create ?events () =
  {
    events;
    now = 0;
    buf = Array.make initial_capacity dummy;
    head = 0;
    count = 0;
    max_occupancy = 0;
    spec_appends = 0;
    commits = 0;
    squashes = 0;
    spec_live = 0;
    faults = 0;
    dead = 0;
    fwd_value = 0;
    fwd_fault = None;
    tick_examined = 0;
    tick_skipped = 0;
  }

(* The capacity is a power of two, so wrapping is a mask. *)
let wrap t i = i land (Array.length t.buf - 1)
let nth t i = t.buf.(wrap t (t.head + i))
let set_now t cycle = t.now <- cycle

let ev t kind a b =
  match t.events with
  | None -> ()
  | Some e -> Psb_obs.Events.emit e ~cycle:t.now kind ~a ~b

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) dummy in
  for i = 0 to t.count - 1 do
    buf.(i) <- nth t i
  done;
  t.buf <- buf;
  t.head <- 0

let is_live_spec e = e.spec && e.valid

let count_fault e = match e.fault with Some _ -> 1 | None -> 0

let append t ~addr ~value ~pred ~spec ~fault =
  if t.count = Array.length t.buf then grow t;
  let e = { addr; value; pred; spec; valid = true; examined = false; fault } in
  t.buf.(wrap t (t.head + t.count)) <- e;
  t.count <- t.count + 1;
  ev t Psb_obs.Events.Sb_append addr (if spec then 1 else 0);
  if spec then begin
    t.spec_appends <- t.spec_appends + 1;
    t.spec_live <- t.spec_live + 1;
    t.faults <- t.faults + count_fault e
  end;
  if t.count > t.max_occupancy then t.max_occupancy <- t.count

let tick ~dirty t ccr =
  if t.spec_live > 0 then
    for i = 0 to t.count - 1 do
      let e = nth t i in
      if is_live_spec e then begin
        let value =
          if e.examined && e.pred.Pred.mask land dirty = 0 then begin
            t.tick_skipped <- t.tick_skipped + 1;
            Pred.Unspec
          end
          else begin
            t.tick_examined <- t.tick_examined + 1;
            e.examined <- true;
            Ccr.evalc ccr e.pred
          end
        in
        match value with
        | Pred.True ->
            assert (count_fault e = 0);
            t.commits <- t.commits + 1;
            ev t Psb_obs.Events.Sb_commit e.addr 0;
            e.spec <- false;
            t.spec_live <- t.spec_live - 1
        | Pred.False ->
            t.squashes <- t.squashes + 1;
            ev t Psb_obs.Events.Sb_squash e.addr 0;
            e.valid <- false;
            t.dead <- t.dead + 1;
            t.spec_live <- t.spec_live - 1;
            t.faults <- t.faults - count_fault e
        | Pred.Unspec -> ()
      end
    done

let committing_exceptions t lookup =
  if t.faults = 0 then []
  else begin
    let acc = ref [] in
    for i = t.count - 1 downto 0 do
      let e = nth t i in
      match e.fault with
      | Some f
        when is_live_spec e && Pred.eval e.pred lookup = Pred.True ->
          acc := f :: !acc
      | Some _ | None -> ()
    done;
    !acc
  end

let pop_head t =
  t.buf.(t.head) <- dummy;
  t.head <- wrap t (t.head + 1);
  t.count <- t.count - 1

let drain t ~max:limit mem =
  let written = ref 0 in
  let continue = ref true in
  while !continue && t.count > 0 do
    let e = t.buf.(t.head) in
    if not e.valid then begin
      (* squashed: free discard *)
      t.dead <- t.dead - 1;
      pop_head t
    end
    else if e.spec || !written >= limit then continue := false
    else begin
      (match e.fault with
      | Some (Fault.Mem f) -> raise (Memory.Fault f)
      | Some (Fault.Arith _) | None -> ());
      Memory.write mem e.addr e.value;
      ev t Psb_obs.Events.Sb_flush e.addr e.value;
      incr written;
      pop_head t
    end
  done;
  !written

let drain_all t mem =
  ignore (drain t ~max:max_int mem);
  (* With no limit, drain only stops at a still-speculative entry. *)
  if t.count > 0 then
    invalid_arg "Store_buffer.drain_all: speculative entries remain"

(* Search youngest → oldest, from position [i], among valid entries with
   the address. Only a speculative entry is skipped for a predicate
   disjoint from the load's: a committed one is memory that has not
   drained yet, and its predicate may date from a region since left,
   whose conditions were reset and renumbered. *)
let rec search t ~addr ~load_pred ccr i =
  if i < 0 then `Miss
  else
    let e = nth t i in
    if
      (not (e.valid && e.addr = addr))
      || (e.spec && Pred.disjoint e.pred load_pred)
    then search t ~addr ~load_pred ccr (i - 1)
    else if (not e.spec) || Pred.implies load_pred e.pred then hit t e
    else
      match Ccr.evalc ccr e.pred with
      | Pred.True -> hit t e
      | Pred.False -> search t ~addr ~load_pred ccr (i - 1)
      | Pred.Unspec -> `Commit_dependence

and hit t e =
  ev t Psb_obs.Events.Sb_forward e.addr e.value;
  t.fwd_value <- e.value;
  t.fwd_fault <- e.fault;
  `Hit

let forward t ~addr ~load_pred ccr =
  search t ~addr ~load_pred ccr (t.count - 1)

let forwarded_value t = t.fwd_value
let forwarded_fault t = t.fwd_fault

let invalidate_spec t =
  (* Squash every speculative entry, youngest first, and compact the
     invalid ones away in place. Returns at once when every entry is
     valid and committed. *)
  if t.spec_live > 0 || t.dead > 0 then begin
    for i = t.count - 1 downto 0 do
      let e = nth t i in
      if e.spec then begin
        if e.valid then ev t Psb_obs.Events.Sb_squash e.addr 1;
        e.valid <- false
      end
    done;
    let kept = ref 0 in
    for i = 0 to t.count - 1 do
      let e = nth t i in
      if e.valid then begin
        t.buf.(wrap t (t.head + !kept)) <- e;
        incr kept
      end
    done;
    for i = !kept to t.count - 1 do
      t.buf.(wrap t (t.head + i)) <- dummy
    done;
    t.count <- !kept;
    t.spec_live <- 0;
    t.faults <- 0;
    t.dead <- 0
  end

let has_spec t = t.spec_live > 0
let length t = t.count
let max_occupancy t = t.max_occupancy
let spec_appends t = t.spec_appends
let commits t = t.commits
let squashes t = t.squashes
let buffered_faults t = t.faults
let tick_examined t = t.tick_examined
let tick_skipped t = t.tick_skipped

let debug_recount t =
  let len = t.count and spec = ref 0 and faults = ref 0 in
  for i = 0 to t.count - 1 do
    let e = nth t i in
    if is_live_spec e then begin
      incr spec;
      faults := !faults + count_fault e
    end
  done;
  (len, !spec, !faults)
