open Psb_isa
module Events = Psb_obs.Events
module Metrics = Psb_obs.Metrics

type stats = {
  fetched : int;
  committed : int;
  squashed : int;
  branches : int;
  mispredicts : int;
  loads_forwarded : int;
  squashed_faults : int;
  fault_restarts : int;
  rob_max_occupancy : int;
  rob_full_stalls : int;
}

type breakdown = {
  rb_fault : int;
  rb_commit : int;
  rb_flush : int;
  rb_mem : int;
  rb_frontend : int;
  rb_exec : int;
}

let breakdown_fields b =
  [
    ("fault_restart", b.rb_fault);
    ("commit", b.rb_commit);
    ("redirect_flush", b.rb_flush);
    ("memory_wait", b.rb_mem);
    ("frontend", b.rb_frontend);
    ("execute", b.rb_exec);
  ]

let breakdown_total b =
  List.fold_left (fun acc (_, v) -> acc + v) 0 (breakdown_fields b)

let pp_breakdown ppf b =
  let total = breakdown_total b in
  let pct v =
    if total = 0 then 0. else 100. *. float_of_int v /. float_of_int total
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-22s %10d  %5.1f%%@," name v (pct v))
    (breakdown_fields b);
  Format.fprintf ppf "%-22s %10d@]" "total" total

type result = {
  outcome : Interp.outcome;
  output : int list;
  cycles : int;
  dyn_instrs : int;
  regs : int Reg.Map.t;
  faults_handled : int;
  stats : stats;
  breakdown : breakdown;
}

(* The reorder buffer keeps its entries in per-field banks indexed by
   slot, like the [rob_busy]/[rob_typ]/[rob_rno]/[rob_val] registers of a
   hardware ROB. An entry holds the dynamic facts only: its static fields
   stay in the {!Psb_isa.Decoded} arrays, found through [e_ins], and its
   [kind] is a [Decoded.k*] class tag (or [branch_class]), so the
   per-cycle loops dispatch on ints.

   An entry's state is an int: [st_waiting], [st_exec] or [st_done].
   Each operand is a pair of banks: the slot of the producing entry it
   waits on ([-1] once ready) and its value.

   No cycle walks the buffer. Four structures, kept in step with the
   entries, find the work:
   - the ready list: the waiting entries whose operands are all ready,
     oldest first, doubly linked through [r_next]/[r_prev];
   - the completion wheel: the executing entries, in one bucket per
     completion cycle modulo a power of two above the longest latency,
     each bucket oldest first, linked through [x_next];
   - the store queue: the live stores, oldest first, a ring of slots;
   - the wakeup lists: per producing slot, the operands waiting on it,
     doubly linked through nodes [2 * slot] (first operand) and
     [2 * slot + 1] (second), so a squashed consumer unlinks its nodes
     before its slot can be reused.
   Squashes always take the youngest entries, so the ready list, the
   buckets and the store queue lose a suffix. *)
let st_waiting = -1
let st_done = 0
let st_exec = 1

let branch_class = Decoded.kbranch

(* kinds that write an architectural register: alu, mov, load, cmp *)
let has_reg_dst k =
  k = Decoded.kalu || k = Decoded.kmov || k = Decoded.kload || k = Decoded.kcmp

let default_fuel = 60_000_000

exception Abort of Fault.t
exception Halted_exn
exception Fuel_exhausted

let run ?(fuel = default_fuel) ?events ?metrics ?decoded ~model ~regs ~mem
    program =
  let d =
    match decoded with
    | Some d ->
        Decoded.check_source d program;
        d
    | None -> Decoded.of_program program
  in
  let nregs = max 1 (Program.max_reg program + 1) in
  let nregs =
    List.fold_left (fun m (r, _) -> max m (Reg.index r + 1)) nregs regs
  in
  let nconds = max 1 (Program.max_cond program + 1) in
  let size = model.Machine_model.rob_size in
  let issue_width = model.Machine_model.issue_width in
  let dcache_ports = model.Machine_model.dcache_ports in
  let int_latency = max 1 model.Machine_model.int_latency in
  let load_latency = max 1 model.Machine_model.load_latency in
  (* the decoded form's arrays, read at dispatch, completion and commit *)
  let op_bounds = d.Decoded.op_bounds and d_kind = d.Decoded.kind in
  let d_dst = d.Decoded.dst and d_aux = d.Decoded.aux in
  (* architectural state — only commit touches it *)
  let arch = Array.make nregs 0 in
  let written = Array.make nregs false in
  let conds = Array.make nconds false in
  List.iter
    (fun (r, v) ->
      arch.(Reg.index r) <- v;
      written.(Reg.index r) <- true)
    regs;
  let output_rev = ref [] in
  let faults_handled = ref 0 in
  (* the reorder buffer: circular, [head] oldest, [count] live entries,
     one bank per field *)
  let head = ref 0 in
  let count = ref 0 in
  (* fetch sequence number: program order, wrong paths included, so
     the age order of live entries *)
  let e_seq = Array.make size 0 in
  (* dynamic block-visit id, for commit-ordered region events *)
  let e_visit = Array.make size 0 in
  (* decoded block index *)
  let e_blk = Array.make size 0 in
  (* decoded op index; for a branch, one past its block's last op, so
     [e_ins - op_bounds.(blk)] is always the position in the block (the
     fault-restart point) *)
  let e_ins = Array.make size 0 in
  let e_kind = Array.make size 0 in
  (* the prediction of a branch *)
  let e_pred = Array.make size false in
  let e_state = Array.make size st_waiting in
  let e_result = Array.make size 0 in
  (* resolved memory address, set when a load or store completes *)
  let e_addr = Array.make size 0 in
  (* buffered, raised only at commit; written only when an op faults *)
  let e_fault : Fault.t option array = Array.make size None in
  (* the operands *)
  let e_w1 = Array.make size (-1) and e_v1 = Array.make size 0 in
  let e_w2 = Array.make size (-1) and e_v2 = Array.make size 0 in
  (* slot of position [k < size] from the head, without a division *)
  let slot_at k =
    let s = !head + k in
    if s >= size then s - size else s
  in
  (* the ready list *)
  let r_next = Array.make size (-1) and r_prev = Array.make size (-1) in
  let r_head = ref (-1) and r_tail = ref (-1) in
  (* the completion wheel *)
  let wheel =
    let n = ref 1 in
    while !n <= max int_latency load_latency do
      n := 2 * !n
    done;
    !n
  in
  let wmask = wheel - 1 in
  let x_head = Array.make wheel (-1) and x_tail = Array.make wheel (-1) in
  let x_next = Array.make size (-1) in
  (* the store queue *)
  let sq = Array.make size 0 in
  let sq_head = ref 0 and sq_n = ref 0 in
  let sq_at k =
    let s = !sq_head + k in
    if s >= size then s - size else s
  in
  (* the wakeup lists *)
  let w_head = Array.make size (-1) in
  let n_next = Array.make (2 * size) (-1) in
  let n_prev = Array.make (2 * size) (-1) in
  (* rename map: architectural register -> slot of the youngest live
     producer, -1 when the architectural file holds the value; commit,
     the mispredict rebuild and the restart keep it pointing at live
     entries only *)
  let rmap = Array.make nregs (-1) in
  (* fetch state *)
  let cur_blk = ref d.Decoded.entry in
  let cur_idx = ref 0 in
  let visit_counter = ref 0 in
  let cur_visit = ref 0 in
  let fetch_halted = ref false in
  let redirect_stall = ref 0 in
  let seq_counter = ref 0 in
  (* 2-bit saturating counter per branch block, initially weakly taken *)
  let pred_arr = Array.make (max 1 d.Decoded.nblocks) 2 in
  (* function units per class, and those still free this cycle *)
  let n_alu = Machine_model.units_available model Machine_model.Alu_unit in
  let n_br = Machine_model.units_available model Machine_model.Branch_unit in
  let n_ld = Machine_model.units_available model Machine_model.Load_unit in
  let n_st = Machine_model.units_available model Machine_model.Store_unit in
  let free_alu = ref 0 and free_br = ref 0 in
  let free_ld = ref 0 and free_st = ref 0 in
  (* statistics *)
  let fetched = ref 0 in
  let squashed = ref 0 in
  let mispredicts = ref 0 in
  let loads_forwarded = ref 0 in
  let squashed_faults = ref 0 in
  let fault_restarts = ref 0 in
  let max_occ = ref 0 in
  let full_stalls = ref 0 in
  let class_counts = Array.make Decoded.num_kinds 0 in
  (* cycle accounting *)
  let now = ref 0 in
  let acct_fault = ref 0 in
  let acct_commit = ref 0 in
  let acct_flush = ref 0 in
  let acct_mem = ref 0 in
  let acct_frontend = ref 0 in
  let acct_exec = ref 0 in
  (* per-cycle classification inputs *)
  let ncommitted = ref 0 in
  let fault_cycle = ref false in
  let flush_cycle = ref false in
  let eev kind ~a ~b =
    match events with
    | None -> ()
    | Some e -> Events.emit e ~cycle:!now kind ~a ~b
  in
  (* the per-entry sites test this first, so an untraced run makes no
     call for an event *)
  let traced = Option.is_some events in
  let region_id label =
    match events with
    | None -> -1
    | Some e -> Events.intern e (Label.name label)
  in
  let occ_hist =
    Option.map
      (fun m ->
        Metrics.histogram m "rob_occupancy"
          ~buckets:[ 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64. ])
      metrics
  in
  (* ----- the lists ----- *)
  (* Insert [slot] into the ready list by age; a dispatched entry is the
     youngest, so it goes straight to the tail. *)
  let ready_insert slot =
    let s = e_seq.(slot) in
    let p = ref !r_tail in
    while !p >= 0 && e_seq.(!p) > s do
      p := r_prev.(!p)
    done;
    let p = !p in
    let nx = if p < 0 then !r_head else r_next.(p) in
    r_prev.(slot) <- p;
    r_next.(slot) <- nx;
    if p < 0 then r_head := slot else r_next.(p) <- slot;
    if nx < 0 then r_tail := slot else r_prev.(nx) <- slot
  in
  let ready_remove slot =
    let p = r_prev.(slot) and nx = r_next.(slot) in
    if p < 0 then r_head := nx else r_next.(p) <- nx;
    if nx < 0 then r_tail := p else r_prev.(nx) <- p
  in
  (* Put [slot] in the bucket of cycle [due], by age. *)
  let exec_insert slot due =
    let b = due land wmask and s = e_seq.(slot) in
    let t = x_tail.(b) in
    x_next.(slot) <- -1;
    if t < 0 then begin
      x_head.(b) <- slot;
      x_tail.(b) <- slot
    end
    else if e_seq.(t) < s then begin
      x_next.(t) <- slot;
      x_tail.(b) <- slot
    end
    else begin
      let h = x_head.(b) in
      if e_seq.(h) > s then begin
        x_next.(slot) <- h;
        x_head.(b) <- slot
      end
      else begin
        let p = ref h in
        while e_seq.(x_next.(!p)) < s do
          p := x_next.(!p)
        done;
        x_next.(slot) <- x_next.(!p);
        x_next.(!p) <- slot
      end
    end
  in
  (* Operand node [n] of a squashed consumer stops waiting on producer
     [p]. *)
  let unlink n p =
    let pv = n_prev.(n) and nx = n_next.(n) in
    if pv < 0 then w_head.(p) <- nx else n_next.(pv) <- nx;
    if nx >= 0 then n_prev.(nx) <- pv
  in
  (* Drop every entry younger than sequence number [s] from the ready
     list, the completion wheel and the store queue. *)
  let truncate_lists s =
    while !r_tail >= 0 && e_seq.(!r_tail) > s do
      r_tail := r_prev.(!r_tail)
    done;
    if !r_tail < 0 then r_head := -1 else r_next.(!r_tail) <- -1;
    for b = 0 to wmask do
      let h = x_head.(b) in
      if h >= 0 && e_seq.(x_tail.(b)) > s then
        if e_seq.(h) > s then begin
          x_head.(b) <- -1;
          x_tail.(b) <- -1
        end
        else begin
          let p = ref h in
          while e_seq.(x_next.(!p)) <= s do
            p := x_next.(!p)
          done;
          x_next.(!p) <- -1;
          x_tail.(b) <- !p
        end
    done;
    while !sq_n > 0 && e_seq.(sq.(sq_at (!sq_n - 1))) > s do
      decr sq_n
    done
  in
  (* ----- dispatch ----- *)
  (* Capture the source register [reg] (or, when [reg < 0], the
     immediate [imm]) into operand [w]/[v] of [slot]: the value if it is
     available (an immediate, architectural, or the producing entry has
     completed), else the producing entry's slot, with wakeup node [n]
     linked into that entry's list. *)
  let capture w v n slot reg imm =
    let s = if reg >= 0 then rmap.(reg) else -1 in
    if s >= 0 && e_state.(s) <> st_done then begin
      w.(slot) <- s;
      let h = w_head.(s) in
      n_prev.(n) <- -1;
      n_next.(n) <- h;
      if h >= 0 then n_prev.(h) <- n;
      w_head.(s) <- n
    end
    else begin
      w.(slot) <- -1;
      v.(slot) <-
        (if reg < 0 then imm else if s >= 0 then e_result.(s) else arch.(reg))
    end
  in
  (* The tail slot's fields other than its operands, which the caller
     has already captured. *)
  let push slot ~blk ~ins ~kind =
    e_seq.(slot) <- !seq_counter;
    e_visit.(slot) <- !cur_visit;
    e_blk.(slot) <- blk;
    e_ins.(slot) <- ins;
    e_kind.(slot) <- kind;
    e_state.(slot) <- st_waiting;
    w_head.(slot) <- -1;
    if e_fault.(slot) != None then e_fault.(slot) <- None;
    incr seq_counter;
    incr count;
    incr fetched;
    if has_reg_dst kind then rmap.(d_dst.(ins)) <- slot
    else if kind = Decoded.kstore then begin
      sq.(sq_at !sq_n) <- slot;
      incr sq_n
    end;
    if e_w1.(slot) < 0 && e_w2.(slot) < 0 then ready_insert slot
  in
  let next_visit () =
    incr visit_counter;
    cur_visit := !visit_counter;
    cur_idx := 0
  in
  let goto t =
    cur_blk := t;
    next_visit ()
  in
  let fetch () =
    let budget = ref issue_width in
    while (not !fetch_halted) && !budget > 0 do
      let bi = !cur_blk in
      let lo = op_bounds.(bi) in
      let len = op_bounds.(bi + 1) - lo in
      (* the block's ops, while the budget and the buffer last *)
      while !budget > 0 && !cur_idx < len && !count < size do
        let i = lo + !cur_idx in
        let k = d_kind.(i) in
        let slot = slot_at !count in
        if k = Decoded.knop then begin
          e_w1.(slot) <- -1;
          e_w2.(slot) <- -1
        end
        else begin
          capture e_w1 e_v1 (2 * slot) slot d.Decoded.s1_reg.(i)
            d.Decoded.s1_imm.(i);
          if k = Decoded.kmov || k = Decoded.kload || k = Decoded.kout then
            e_w2.(slot) <- -1
          else
            capture e_w2 e_v2 ((2 * slot) + 1) slot d.Decoded.s2_reg.(i)
              d.Decoded.s2_imm.(i)
        end;
        push slot ~blk:bi ~ins:i ~kind:k;
        incr cur_idx;
        decr budget
      done;
      if !budget = 0 then ()
      else if !cur_idx < len then begin
        (* an op is left, so the buffer is full *)
        incr full_stalls;
        budget := 0
      end
      else begin
        let tk = d.Decoded.term_kind.(bi) in
        if tk = Decoded.thalt then fetch_halted := true
        else if tk = Decoded.tjmp then begin
          (* free, but charged a slot so a pure-Jmp cycle cannot spin
             forever inside one machine cycle *)
          decr budget;
          goto d.Decoded.term_t.(bi)
        end
        else if !count >= size then begin
          incr full_stalls;
          budget := 0
        end
        else begin
          let predicted = pred_arr.(bi) >= 2 in
          let slot = slot_at !count in
          capture e_w1 e_v1 (2 * slot) slot d.Decoded.term_src.(bi) 0;
          e_w2.(slot) <- -1;
          e_pred.(slot) <- predicted;
          push slot ~blk:bi ~ins:(lo + len) ~kind:branch_class;
          decr budget;
          goto (if predicted then d.Decoded.term_t.(bi) else d.Decoded.term_f.(bi))
        end
      end
    done
  in
  let fetch_cycle () =
    if !redirect_stall > 0 then decr redirect_stall else fetch ()
  in
  (* ----- completion ----- *)
  (* The operands waiting on [slot] take its value [v]; a consumer whose
     operands are now all ready joins the ready list. *)
  let wake slot v =
    let n = ref w_head.(slot) in
    w_head.(slot) <- -1;
    while !n >= 0 do
      let c = !n lsr 1 in
      if !n land 1 = 0 then begin
        e_w1.(c) <- -1;
        e_v1.(c) <- v
      end
      else begin
        e_w2.(c) <- -1;
        e_v2.(c) <- v
      end;
      if e_w1.(c) < 0 && e_w2.(c) < 0 then ready_insert c;
      n := n_next.(!n)
    done
  in
  let squash_entry ~reason slot =
    if e_state.(slot) = st_waiting then begin
      if e_w1.(slot) >= 0 then unlink (2 * slot) e_w1.(slot);
      if e_w2.(slot) >= 0 then unlink ((2 * slot) + 1) e_w2.(slot)
    end;
    if traced then eev Events.Rob_squash ~a:e_seq.(slot) ~b:reason;
    incr squashed;
    if e_fault.(slot) != None then incr squashed_faults
  in
  (* The youngest done store older than the load [slot] with the
     resolved address [addr], or -1. *)
  let forward_from_store slot addr =
    let s = e_seq.(slot) in
    let k = ref (!sq_n - 1) and found = ref (-1) in
    while !found < 0 && !k >= 0 do
      let p = sq.(sq_at !k) in
      if
        e_seq.(p) < s && e_state.(p) = st_done && e_addr.(p) = addr
      then found := p;
      decr k
    done;
    !found
  in
  let mispredict_flush slot ~blk =
    incr mispredicts;
    let pos =
      let p = slot - !head in
      if p < 0 then p + size else p
    in
    for k = pos + 1 to !count - 1 do
      squash_entry ~reason:0 (slot_at k)
    done;
    count := pos + 1;
    truncate_lists e_seq.(slot);
    Array.fill rmap 0 nregs (-1);
    for k = 0 to pos do
      let c = slot_at k in
      if has_reg_dst e_kind.(c) then rmap.(d_dst.(e_ins.(c))) <- c
    done;
    cur_blk := blk;
    next_visit ();
    fetch_halted := false;
    redirect_stall := 1 + model.Machine_model.transition_penalty;
    flush_cycle := true
  in
  let defer_fault slot f ~a =
    e_result.(slot) <- 0;
    e_fault.(slot) <- Some f;
    eev Events.Fault_deferred ~a ~b:0
  in
  let complete_entry slot =
    let kind = e_kind.(slot) in
    let v1 = e_v1.(slot) in
    e_state.(slot) <- st_done;
    if kind = branch_class then begin
      let taken = v1 <> 0 in
      e_result.(slot) <- (if taken then 1 else 0);
      let blk = e_blk.(slot) in
      let c = pred_arr.(blk) in
      pred_arr.(blk) <-
        (if taken then if c < 3 then c + 1 else 3 else if c > 0 then c - 1 else 0);
      if taken <> e_pred.(slot) then
        mispredict_flush slot
          ~blk:(if taken then d.Decoded.term_t.(blk) else d.Decoded.term_f.(blk))
    end
    else begin
      let i = e_ins.(slot) in
      (* dense dispatch on the Decoded class tags:
         0 alu, 1 mov, 2 load, 3 store, 4 cmp, 5 setc, 6 out, 7 nop *)
      match kind with
      | 0 -> (
          match Opcode.eval_alu d.Decoded.alu.(i) v1 e_v2.(slot) with
          | r ->
              e_result.(slot) <- r;
              wake slot r
          | exception Opcode.Arithmetic_fault m ->
              defer_fault slot (Fault.Arith m) ~a:(-1);
              wake slot 0)
      | 1 ->
          e_result.(slot) <- v1;
          wake slot v1
      | 6 -> e_result.(slot) <- v1
      | 4 | 5 ->
          let r = if Opcode.eval_cmp d.Decoded.cmp.(i) v1 e_v2.(slot) then 1 else 0 in
          e_result.(slot) <- r;
          if kind = 4 then wake slot r
      | 2 ->
          let addr = v1 + d_aux.(i) in
          e_addr.(slot) <- addr;
          let j = forward_from_store slot addr in
          if j >= 0 then begin
            e_result.(slot) <- e_result.(j);
            incr loads_forwarded
          end
          else begin
            match Memory.read mem addr with
            | value -> e_result.(slot) <- value
            | exception Memory.Fault f -> defer_fault slot (Fault.Mem f) ~a:addr
          end;
          wake slot e_result.(slot)
      | 3 -> (
          let addr = v1 + d_aux.(i) in
          e_addr.(slot) <- addr;
          e_result.(slot) <- e_v2.(slot);
          match Memory.probe mem addr with
          | None -> ()
          | Some f ->
              e_fault.(slot) <- Some (Fault.Mem f);
              eev Events.Fault_deferred ~a:addr ~b:0)
      | _ (* nop *) -> e_result.(slot) <- 0
    end
  in
  (* Completes the entries due this cycle, oldest first. A mispredict
     empties the rest of the bucket: every entry in it is younger. *)
  let complete_cycle () =
    let b = !now land wmask in
    while x_head.(b) >= 0 do
      let slot = x_head.(b) in
      let nx = x_next.(slot) in
      x_head.(b) <- nx;
      if nx < 0 then x_tail.(b) <- -1;
      complete_entry slot
    done
  in
  (* ----- issue ----- *)
  (* Sequence number of the oldest store not yet done, or [max_int]. *)
  let oldest_pending_store () =
    let k = ref 0 and r = ref max_int in
    while !k < !sq_n do
      let p = sq.(sq_at !k) in
      if e_state.(p) <> st_done then begin
        r := e_seq.(p);
        k := !sq_n
      end
      else incr k
    done;
    !r
  in
  (* Walks the ready list, oldest first, until the units run out. *)
  let issue_cycle () =
    free_alu := n_alu;
    free_br := n_br;
    free_ld := n_ld;
    free_st := n_st;
    let left = ref (n_alu + n_br + n_ld + n_st) in
    (* total store-queue disambiguation: a load waits until every older
       store has resolved its address; found once per cycle, on the
       first ready load *)
    let pending = ref (-1) in
    let s = ref !r_head in
    while !s >= 0 && !left > 0 do
      let slot = !s in
      s := r_next.(slot);
      let kind = e_kind.(slot) in
      let free =
        if kind = branch_class then free_br
        else if kind = Decoded.kload then free_ld
        else if kind = Decoded.kstore then free_st
        else free_alu
      in
      if
        !free > 0
        && (kind <> Decoded.kload
           ||
           (if !pending < 0 then pending := oldest_pending_store ();
            e_seq.(slot) < !pending))
      then begin
        decr free;
        decr left;
        ready_remove slot;
        e_state.(slot) <- st_exec;
        exec_insert slot
          (!now + if kind = Decoded.kload then load_latency else int_latency)
      end
    done
  in
  (* ----- commit ----- *)
  let last_committed_visit = ref 0 in
  let restart_at slot =
    incr fault_restarts;
    let blk = e_blk.(slot) and visit = e_visit.(slot) in
    let idx = e_ins.(slot) - op_bounds.(blk) in
    for k = 0 to !count - 1 do
      let p = slot_at k in
      (* the head's own fault was raised, not discarded *)
      if k = 0 then begin
        eev Events.Rob_squash ~a:e_seq.(p) ~b:1;
        incr squashed
      end
      else squash_entry ~reason:1 p
    done;
    count := 0;
    head := 0;
    r_head := -1;
    r_tail := -1;
    Array.fill x_head 0 wheel (-1);
    Array.fill x_tail 0 wheel (-1);
    sq_n := 0;
    Array.fill rmap 0 nregs (-1);
    cur_blk := blk;
    cur_idx := idx;
    cur_visit := visit;
    fetch_halted := false;
    redirect_stall := 1 + model.Machine_model.transition_penalty;
    fault_cycle := true
  in
  let commit_fault slot f =
    match f with
    | Fault.Arith _ ->
        eev Events.Fault_raised ~a:(-1) ~b:0;
        raise (Abort f)
    | Fault.Mem _ -> (
        (* Re-probe: an older instruction's commit may already have
           mapped the page (it flushed us too, but be robust); a stale
           fault just restarts without counting a handled fault. *)
        let addr = e_addr.(slot) in
        match Memory.probe mem addr with
        | Some mf when Memory.is_fatal mf ->
            eev Events.Fault_raised ~a:addr ~b:0;
            raise (Abort (Fault.Mem mf))
        | Some mf ->
            assert (Memory.handle_fault mem mf);
            incr faults_handled;
            eev Events.Fault_raised ~a:addr ~b:1;
            restart_at slot
        | None -> restart_at slot)
  in
  let commit_cycle () =
    let budget = ref issue_width in
    let st_budget = ref dcache_ports in
    while !budget > 0 && !count > 0 do
      let slot = !head in
      if e_state.(slot) <> st_done then budget := 0
      else
        match e_fault.(slot) with
        | Some f ->
            commit_fault slot f;
            budget := 0
        | None ->
            let kind = e_kind.(slot) in
            let is_store = kind = Decoded.kstore in
            if is_store && !st_budget <= 0 then budget := 0
            else begin
              if e_visit.(slot) <> !last_committed_visit then begin
                last_committed_visit := e_visit.(slot);
                if traced then
                  eev Events.Region_enter
                    ~a:(region_id d.Decoded.labels.(e_blk.(slot)))
                    ~b:0
              end;
              let result = e_result.(slot) in
              if is_store then begin
                Memory.write mem e_addr.(slot) result;
                (* the oldest live store *)
                sq_head := sq_at 1;
                decr sq_n;
                decr st_budget
              end
              else if kind = Decoded.kout then
                output_rev := result :: !output_rev
              else if kind = Decoded.ksetc then
                conds.(d_dst.(e_ins.(slot))) <- result <> 0
              else if has_reg_dst kind then begin
                (* alu / mov / load / cmp: architectural writeback *)
                let ri = d_dst.(e_ins.(slot)) in
                arch.(ri) <- result;
                written.(ri) <- true;
                if rmap.(ri) = slot then rmap.(ri) <- -1
              end;
              class_counts.(kind) <- class_counts.(kind) + 1;
              if traced then eev Events.Rob_commit ~a:e_seq.(slot) ~b:slot;
              incr ncommitted;
              head := slot_at 1;
              decr count;
              decr budget
            end
    done
  in
  let head_mem_wait () =
    !count > 0
    &&
    let kind = e_kind.(!head) in
    (kind = Decoded.kload || kind = Decoded.kstore) && e_state.(!head) <> st_done
  in
  let finish outcome =
    (* every retired entry was counted in its class *)
    let committed = Array.fold_left ( + ) 0 class_counts in
    let breakdown =
      {
        rb_fault = !acct_fault;
        rb_commit = !acct_commit;
        rb_flush = !acct_flush;
        rb_mem = !acct_mem;
        rb_frontend = !acct_frontend;
        rb_exec = !acct_exec;
      }
    in
    (match metrics with
    | None -> ()
    | Some m ->
        let c name v = Metrics.inc (Metrics.counter m name) ~by:v in
        c "rob_cycles_total" !now;
        c "rob_dyn_instrs" committed;
        c "rob_fetched" !fetched;
        c "rob_squashed_entries" !squashed;
        c "rob_mispredicts" !mispredicts;
        c "rob_fault_restarts" !fault_restarts;
        c "rob_loads_forwarded" !loads_forwarded;
        c "rob_full_stalls" !full_stalls;
        Array.iteri
          (fun i n ->
            if n > 0 then
              Metrics.inc
                (Metrics.counter m "rob_ops"
                   ~labels:[ ("class", Decoded.kind_names.(i)) ])
                ~by:n)
          class_counts;
        List.iter
          (fun (cat, v) ->
            Metrics.inc
              (Metrics.counter m "rob_cycles" ~labels:[ ("category", cat) ])
              ~by:v)
          (breakdown_fields breakdown));
    let final_regs =
      Array.to_seqi arch
      |> Seq.filter (fun (i, _) -> written.(i))
      |> Seq.fold_left
           (fun m (i, v) -> Reg.Map.add (Reg.make i) v m)
           Reg.Map.empty
    in
    {
      outcome;
      output = List.rev !output_rev;
      cycles = !now;
      dyn_instrs = committed;
      regs = final_regs;
      faults_handled = !faults_handled;
      stats =
        {
          fetched = !fetched;
          committed;
          squashed = !squashed;
          branches = class_counts.(branch_class);
          mispredicts = !mispredicts;
          loads_forwarded = !loads_forwarded;
          squashed_faults = !squashed_faults;
          fault_restarts = !fault_restarts;
          rob_max_occupancy = !max_occ;
          rob_full_stalls = !full_stalls;
        };
      breakdown;
    }
  in
  eev Events.Region_enter ~a:(region_id program.Program.entry) ~b:0;
  let rec loop () =
    if !count = 0 && !fetch_halted then raise Halted_exn;
    if !now > fuel then raise Fuel_exhausted;
    let was_empty = !count = 0 in
    ncommitted := 0;
    fault_cycle := false;
    flush_cycle := false;
    commit_cycle ();
    complete_cycle ();
    issue_cycle ();
    let redirect_active = !redirect_stall > 0 || !flush_cycle in
    fetch_cycle ();
    if !count > !max_occ then max_occ := !count;
    (match occ_hist with
    | Some h -> Metrics.observe h (float_of_int !count)
    | None -> ());
    (if !fault_cycle then incr acct_fault
     else if !ncommitted > 0 then incr acct_commit
     else if redirect_active then incr acct_flush
     else if head_mem_wait () then incr acct_mem
     else if was_empty then incr acct_frontend
     else incr acct_exec);
    incr now;
    loop ()
  in
  try loop () with
  | Halted_exn -> finish Interp.Halted
  | Abort f -> finish (Interp.Fatal f)
  | Fuel_exhausted -> finish (Interp.Out_of_fuel)
