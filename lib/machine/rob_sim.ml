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
   hardware ROB. Entries are predecoded at dispatch into the dense class
   tags of the {!Psb_isa.Decoded} form ([kind] is a [Decoded.k*] value, or
   [branch_class]), so the per-cycle loops dispatch on ints and fetch
   copies ints straight out of the flat arrays.

   An entry's state is an int: [st_waiting], [st_done], or (> 0) the
   cycles left executing. Each operand is a pair of banks: the slot of
   the producing entry it waits on ([-1] once ready) and its value. *)
let st_waiting = -1
let st_done = 0

let op_classes =
  [| "alu"; "mov"; "load"; "store"; "cmp"; "setc"; "out"; "nop"; "branch" |]

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
  let size = Machine_model.rob_size model in
  let issue_width = model.Machine_model.issue_width in
  let dcache_ports = model.Machine_model.dcache_ports in
  let int_latency = max 1 model.Machine_model.int_latency in
  let load_latency = max 1 model.Machine_model.load_latency in
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
  (* fetch sequence number: program order, wrong paths included *)
  let e_seq = Array.make size 0 in
  (* dynamic block-visit id, for commit-ordered region events *)
  let e_visit = Array.make size 0 in
  (* decoded block index, and position in the block body (the
     fault-restart point) *)
  let e_blk = Array.make size 0 and e_idx = Array.make size 0 in
  let e_kind = Array.make size 0 in
  (* register index, condition index for setc; -1 *)
  let e_dst = Array.make size 0 in
  (* load/store offset *)
  let e_aux = Array.make size 0 in
  let e_alu = Array.make size Opcode.Add in
  let e_cmp = Array.make size Opcode.Eq in
  (* branch targets as block indices, and the prediction *)
  let e_tt = Array.make size 0 and e_tf = Array.make size 0 in
  let e_pred = Array.make size false in
  let e_state = Array.make size st_waiting in
  let e_result = Array.make size 0 in
  (* resolved memory address; -1 until known *)
  let e_addr = Array.make size (-1) in
  let e_live = Array.make size false in
  (* buffered, raised only at commit; written only when an op faults *)
  let e_fault : Fault.t option array = Array.make size None in
  (* the operands *)
  let e_w1 = Array.make size (-1) and e_v1 = Array.make size 0 in
  let e_w2 = Array.make size (-1) and e_v2 = Array.make size 0 in
  (* operands captured waiting on this entry; an upper bound once a
     waiting consumer is squashed *)
  let e_waiters = Array.make size 0 in
  (* live entries waiting to issue, and executing *)
  let nwait = ref 0 in
  let nexec = ref 0 in
  (* slot of position [k < size] from the head, without a division *)
  let slot_at k =
    let s = !head + k in
    if s >= size then s - size else s
  in
  (* rename map: architectural register -> slot of the youngest live
     producer, -1 when the architectural file holds the value *)
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
  (* function units per class, and those still free this cycle, indexed
     by [unit_*] *)
  let unit_alu = 0 and unit_br = 1 and unit_ld = 2 and unit_st = 3 in
  let unit_count =
    Array.map
      (Machine_model.units_available model)
      Machine_model.[| Alu_unit; Branch_unit; Load_unit; Store_unit |]
  in
  let units = Array.make 4 0 in
  (* statistics *)
  let fetched = ref 0 in
  let committed = ref 0 in
  let squashed = ref 0 in
  let branches = ref 0 in
  let mispredicts = ref 0 in
  let loads_forwarded = ref 0 in
  let squashed_faults = ref 0 in
  let fault_restarts = ref 0 in
  let max_occ = ref 0 in
  let full_stalls = ref 0 in
  let class_counts = Array.make (Array.length op_classes) 0 in
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
  (* ----- dispatch ----- *)
  (* Capture register [ri] into operand bank [w]/[v] of [slot]: the
     value if it is available (architectural, or the producing entry has
     completed), else the producing entry's slot. *)
  let capture w v slot ri =
    let s = rmap.(ri) in
    if s >= 0 && e_live.(s) && e_state.(s) <> st_done then begin
      w.(slot) <- s;
      e_waiters.(s) <- e_waiters.(s) + 1
    end
    else begin
      w.(slot) <- -1;
      v.(slot) <- (if s >= 0 && e_live.(s) then e_result.(s) else arch.(ri))
    end
  in
  let ready w v slot x =
    w.(slot) <- -1;
    v.(slot) <- x
  in
  (* A register source [reg] or an immediate [imm]. *)
  let capture_src w v slot reg imm =
    if reg >= 0 then capture w v slot reg else ready w v slot imm
  in
  (* The tail slot's fields other than its operands, which the caller
     has already captured. *)
  let push slot ~blk ~idx ~kind ~dst =
    e_seq.(slot) <- !seq_counter;
    e_visit.(slot) <- !cur_visit;
    e_blk.(slot) <- blk;
    e_idx.(slot) <- idx;
    e_kind.(slot) <- kind;
    e_dst.(slot) <- dst;
    e_state.(slot) <- st_waiting;
    incr nwait;
    e_waiters.(slot) <- 0;
    e_result.(slot) <- 0;
    e_addr.(slot) <- -1;
    e_live.(slot) <- true;
    if e_fault.(slot) != None then e_fault.(slot) <- None;
    incr seq_counter;
    incr count;
    incr fetched;
    if has_reg_dst kind then rmap.(dst) <- slot
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
      (* control reached a label missing from the program *)
      if bi < 0 then raise Not_found;
      let lo = d.Decoded.op_bounds.(bi) in
      let len = d.Decoded.op_bounds.(bi + 1) - lo in
      if !cur_idx < len then
        if !count >= size then begin
          incr full_stalls;
          budget := 0
        end
        else begin
          let i = lo + !cur_idx in
          let k = d.Decoded.kind.(i) in
          let slot = slot_at !count in
          if k = Decoded.knop then begin
            ready e_w1 e_v1 slot 0;
            ready e_w2 e_v2 slot 0
          end
          else begin
            capture_src e_w1 e_v1 slot d.Decoded.s1_reg.(i)
              d.Decoded.s1_imm.(i);
            if k = Decoded.kmov || k = Decoded.kload || k = Decoded.kout then
              ready e_w2 e_v2 slot 0
            else
              capture_src e_w2 e_v2 slot d.Decoded.s2_reg.(i)
                d.Decoded.s2_imm.(i)
          end;
          e_aux.(slot) <- d.Decoded.aux.(i);
          e_alu.(slot) <- d.Decoded.alu.(i);
          e_cmp.(slot) <- d.Decoded.cmp.(i);
          push slot ~blk:bi ~idx:!cur_idx ~kind:k ~dst:d.Decoded.dst.(i);
          incr cur_idx;
          decr budget
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
          let tt = d.Decoded.term_t.(bi) and tf = d.Decoded.term_f.(bi) in
          let slot = slot_at !count in
          capture e_w1 e_v1 slot d.Decoded.term_src.(bi);
          ready e_w2 e_v2 slot 0;
          e_aux.(slot) <- 0;
          e_tt.(slot) <- tt;
          e_tf.(slot) <- tf;
          e_pred.(slot) <- predicted;
          push slot ~blk:bi ~idx:len ~kind:branch_class ~dst:(-1);
          decr budget;
          goto (if predicted then tt else tf)
        end
      end
    done
  in
  let fetch_cycle () =
    if !redirect_stall > 0 then decr redirect_stall else fetch ()
  in
  (* ----- completion ----- *)
  (* A consumer is always younger than its producer, so the broadcast
     starts after the producer's position [pos], and it stops once every
     operand captured waiting on the producer has been found. *)
  let broadcast pos slot v =
    let left = ref e_waiters.(slot) and k = ref (pos + 1) in
    while !left > 0 && !k < !count do
      let c = slot_at !k in
      if e_w1.(c) = slot then begin
        ready e_w1 e_v1 c v;
        decr left
      end;
      if e_w2.(c) = slot then begin
        ready e_w2 e_v2 c v;
        decr left
      end;
      incr k
    done
  in
  let squash_entry ~reason slot =
    let n = e_state.(slot) in
    if n = st_waiting then decr nwait else if n > 0 then decr nexec;
    eev Events.Rob_squash ~a:e_seq.(slot) ~b:reason;
    incr squashed;
    if e_fault.(slot) != None then incr squashed_faults
  in
  (* Position of the youngest store strictly older than position [pos]
     with a matching resolved address, or -1. *)
  let forward_from_store pos addr =
    let j = ref (pos - 1) in
    while
      !j >= 0
      &&
      let p = slot_at !j in
      not
        (e_kind.(p) = Decoded.kstore
        && e_state.(p) = st_done
        && e_addr.(p) = addr)
    do
      decr j
    done;
    !j
  in
  let mispredict_flush pos ~blk =
    incr mispredicts;
    for k = pos + 1 to !count - 1 do
      let slot = slot_at k in
      squash_entry ~reason:0 slot;
      e_live.(slot) <- false
    done;
    count := pos + 1;
    Array.fill rmap 0 nregs (-1);
    for k = 0 to pos do
      let slot = slot_at k in
      if has_reg_dst e_kind.(slot) then rmap.(e_dst.(slot)) <- slot
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
  let complete_entry ~pos ~slot =
    let kind = e_kind.(slot) in
    let v1 = e_v1.(slot) and v2 = e_v2.(slot) in
    if kind = branch_class then begin
      let taken = v1 <> 0 in
      e_result.(slot) <- (if taken then 1 else 0);
      e_state.(slot) <- st_done;
      let blk = e_blk.(slot) in
      let c = pred_arr.(blk) in
      pred_arr.(blk) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
      if taken <> e_pred.(slot) then
        mispredict_flush pos ~blk:(if taken then e_tt.(slot) else e_tf.(slot))
    end
    else begin
      (* dense dispatch on the Decoded class tags:
         0 alu, 1 mov, 2 load, 3 store, 4 cmp, 5 setc, 6 out, 7 nop *)
      (match kind with
      | 0 -> (
          match Opcode.eval_alu e_alu.(slot) v1 v2 with
          | r -> e_result.(slot) <- r
          | exception Opcode.Arithmetic_fault m ->
              defer_fault slot (Fault.Arith m) ~a:(-1))
      | 1 | 6 -> e_result.(slot) <- v1
      | 4 | 5 ->
          e_result.(slot) <-
            (if Opcode.eval_cmp e_cmp.(slot) v1 v2 then 1 else 0)
      | 2 -> (
          let addr = v1 + e_aux.(slot) in
          e_addr.(slot) <- addr;
          let j = forward_from_store pos addr in
          if j >= 0 then begin
            e_result.(slot) <- e_result.(slot_at j);
            incr loads_forwarded
          end
          else
            match Memory.read mem addr with
            | value -> e_result.(slot) <- value
            | exception Memory.Fault f -> defer_fault slot (Fault.Mem f) ~a:addr)
      | 3 -> (
          let addr = v1 + e_aux.(slot) in
          e_addr.(slot) <- addr;
          e_result.(slot) <- v2;
          match Memory.probe mem addr with
          | None -> ()
          | Some f ->
              e_fault.(slot) <- Some (Fault.Mem f);
              eev Events.Fault_deferred ~a:addr ~b:0)
      | _ (* nop *) -> e_result.(slot) <- 0);
      e_state.(slot) <- st_done;
      if has_reg_dst kind then broadcast pos slot e_result.(slot)
    end
  in
  (* Walks the buffer until it has seen every executing entry. *)
  let complete_cycle () =
    let k = ref 0 and left = ref !nexec in
    while (not !flush_cycle) && !left > 0 && !k < !count do
      let slot = slot_at !k in
      let n = e_state.(slot) in
      if n > 0 then begin
        decr left;
        if n = 1 then begin
          decr nexec;
          complete_entry ~pos:!k ~slot
        end
        else e_state.(slot) <- n - 1
      end;
      incr k
    done
  in
  (* ----- issue ----- *)
  (* Walks the buffer until it has seen every waiting entry: past the
     last one, nothing can issue. *)
  let issue_cycle () =
    Array.blit unit_count 0 units 0 4;
    let pending_store = ref false in
    let k = ref 0 and left = ref !nwait in
    while !left > 0 && !k < !count do
      let slot = slot_at !k in
      incr k;
      let kind = e_kind.(slot) in
      if e_state.(slot) = st_waiting then begin
        decr left;
        if e_w1.(slot) < 0 && e_w2.(slot) < 0 then begin
          let u =
            if kind = branch_class then unit_br
            else if kind = Decoded.kload then unit_ld
            else if kind = Decoded.kstore then unit_st
            else unit_alu
          in
          (* total store-queue disambiguation: a load waits until every
             older store has resolved its address *)
          let blocked = kind = Decoded.kload && !pending_store in
          if (not blocked) && units.(u) > 0 then begin
            units.(u) <- units.(u) - 1;
            decr nwait;
            incr nexec;
            e_state.(slot) <-
              (if kind = Decoded.kload then load_latency else int_latency)
          end
        end
      end;
      if kind = Decoded.kstore && e_state.(slot) <> st_done then
        pending_store := true
    done
  in
  (* ----- commit ----- *)
  let last_committed_visit = ref 0 in
  let restart_at slot =
    incr fault_restarts;
    let blk = e_blk.(slot) and idx = e_idx.(slot) and visit = e_visit.(slot) in
    for k = 0 to !count - 1 do
      let p = slot_at k in
      (* the head's own fault was raised, not discarded *)
      if k = 0 then begin
        eev Events.Rob_squash ~a:e_seq.(p) ~b:1;
        incr squashed
      end
      else squash_entry ~reason:1 p;
      e_live.(p) <- false
    done;
    count := 0;
    head := 0;
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
                eev Events.Region_enter
                  ~a:(region_id d.Decoded.labels.(e_blk.(slot)))
                  ~b:0
              end;
              let result = e_result.(slot) in
              if kind = branch_class then incr branches
              else if is_store then begin
                Memory.write mem e_addr.(slot) result;
                decr st_budget
              end
              else if kind = Decoded.kout then
                output_rev := result :: !output_rev
              else if kind = Decoded.ksetc then conds.(e_dst.(slot)) <- result <> 0
              else if kind <> Decoded.knop then begin
                (* alu / mov / load / cmp: architectural writeback *)
                let ri = e_dst.(slot) in
                arch.(ri) <- result;
                written.(ri) <- true;
                if rmap.(ri) = slot then rmap.(ri) <- -1
              end;
              class_counts.(kind) <- class_counts.(kind) + 1;
              eev Events.Rob_commit ~a:e_seq.(slot) ~b:slot;
              incr committed;
              incr ncommitted;
              e_live.(slot) <- false;
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
        c "rob_dyn_instrs" !committed;
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
                   ~labels:[ ("class", op_classes.(i)) ])
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
      dyn_instrs = !committed;
      regs = final_regs;
      faults_handled = !faults_handled;
      stats =
        {
          fetched = !fetched;
          committed = !committed;
          squashed = !squashed;
          branches = !branches;
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
