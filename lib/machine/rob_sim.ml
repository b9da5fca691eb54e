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

(* An operand captured at dispatch: either the value was available
   (architectural, or the producing entry had already completed), or the
   producing entry's slot — replaced by [Ready] when that slot's
   completion broadcasts. *)
type src = Ready of int | Wait of int

type estate = Waiting | Exec of int | Done

(* Entries are predecoded at dispatch into the same dense class tags the
   {!Psb_isa.Decoded} form uses ([kind] is a [Decoded.k*] value, or
   [branch_class]), so the issue/complete/commit loops dispatch on ints —
   no [Instr.op] variant walks on the per-cycle paths. Fetch copies the
   ints straight out of the flat arrays. *)
type entry = {
  seq : int;  (* fetch sequence number: program order, wrong paths included *)
  visit : int;  (* dynamic block-visit id, for commit-ordered region events *)
  blk : int;  (* decoded block index *)
  idx : int;  (* position in the block body, the fault-restart point *)
  kind : int;
  dst : int;  (* register index, condition index for setc; -1 *)
  aux : int;  (* load/store offset *)
  alu : Opcode.alu;
  cmp : Opcode.cmp;
  t_true : int;  (* branch targets as block indices *)
  t_false : int;
  predicted : bool;
  srcs : src array;
  mutable state : estate;
  mutable result : int;
  mutable addr : int;  (* resolved memory address; -1 until known *)
  mutable fault : Fault.t option;  (* buffered, raised only at commit *)
}

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
  (* the reorder buffer: circular, [head] oldest, [count] live entries *)
  let buf : entry option array = Array.make size None in
  let head = ref 0 in
  let count = ref 0 in
  let slot_at k = (!head + k) mod size in
  let entry_at k =
    match buf.(slot_at k) with Some e -> e | None -> assert false
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
  let train (e : entry) taken =
    let c = pred_arr.(e.blk) in
    pred_arr.(e.blk) <- (if taken then min 3 (c + 1) else max 0 (c - 1))
  in
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
  let capture_reg ri =
    let s = rmap.(ri) in
    if s < 0 then Ready arch.(ri)
    else
      match buf.(s) with
      | Some p when p.state = Done -> Ready p.result
      | Some _ -> Wait s
      | None -> Ready arch.(ri)
  in
  let push ~blk ~idx ~kind ~dst ~aux ~alu ~cmp ~t_true ~t_false ~predicted
      ~srcs =
    let slot = (!head + !count) mod size in
    let e =
      {
        seq = !seq_counter;
        visit = !cur_visit;
        blk;
        idx;
        kind;
        dst;
        aux;
        alu;
        cmp;
        t_true;
        t_false;
        predicted;
        srcs;
        state = Waiting;
        result = 0;
        addr = -1;
        fault = None;
      }
    in
    incr seq_counter;
    buf.(slot) <- Some e;
    incr count;
    incr fetched;
    if has_reg_dst kind then rmap.(dst) <- slot
  in
  let next_visit () =
    incr visit_counter;
    cur_visit := !visit_counter;
    cur_idx := 0
  in
  let fetch () =
    let goto t =
      cur_blk := t;
      next_visit ()
    in
    let cap1 i =
      let r = d.Decoded.s1_reg.(i) in
      if r >= 0 then capture_reg r else Ready d.Decoded.s1_imm.(i)
    in
    let cap2 i =
      let r = d.Decoded.s2_reg.(i) in
      if r >= 0 then capture_reg r else Ready d.Decoded.s2_imm.(i)
    in
    let budget = ref issue_width in
    let stop = ref false in
    let noted_full = ref false in
    let full () =
      if not !noted_full then begin
        noted_full := true;
        incr full_stalls
      end;
      stop := true
    in
    while (not !stop) && (not !fetch_halted) && !budget > 0 do
      let bi = !cur_blk in
      (* control reached a label missing from the program *)
      if bi < 0 then raise Not_found;
      let lo = d.Decoded.op_bounds.(bi) in
      let len = d.Decoded.op_bounds.(bi + 1) - lo in
      if !cur_idx < len then
        if !count >= size then full ()
        else begin
          let i = lo + !cur_idx in
          let k = d.Decoded.kind.(i) in
          let srcs =
            if k = Decoded.knop then [||]
            else if k = Decoded.kmov || k = Decoded.kload || k = Decoded.kout
            then [| cap1 i |]
            else [| cap1 i; cap2 i |]
          in
          push ~blk:bi ~idx:!cur_idx ~kind:k ~dst:d.Decoded.dst.(i)
            ~aux:d.Decoded.aux.(i) ~alu:d.Decoded.alu.(i)
            ~cmp:d.Decoded.cmp.(i) ~t_true:(-1) ~t_false:(-1)
            ~predicted:false ~srcs;
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
        else if !count >= size then full ()
        else begin
          let predicted = pred_arr.(bi) >= 2 in
          let tt = d.Decoded.term_t.(bi) and tf = d.Decoded.term_f.(bi) in
          push ~blk:bi ~idx:len ~kind:branch_class ~dst:(-1) ~aux:0
            ~alu:Opcode.Add ~cmp:Opcode.Eq ~t_true:tt ~t_false:tf ~predicted
            ~srcs:[| capture_reg d.Decoded.term_src.(bi) |];
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
  let broadcast slot v =
    for k = 0 to !count - 1 do
      let e = entry_at k in
      for i = 0 to Array.length e.srcs - 1 do
        match e.srcs.(i) with
        | Wait s when s = slot -> e.srcs.(i) <- Ready v
        | Wait _ | Ready _ -> ()
      done
    done
  in
  let squash_entry ~reason e =
    eev Events.Rob_squash ~a:e.seq ~b:reason;
    incr squashed;
    if e.fault <> None then incr squashed_faults
  in
  (* youngest older store with a matching resolved address; entries
     strictly older than position [pos] *)
  let forward_from_store pos addr =
    let rec scan j =
      if j < 0 then None
      else
        let p = entry_at j in
        if p.kind = Decoded.kstore && p.state = Done && p.addr = addr then
          Some p.result
        else scan (j - 1)
    in
    scan (pos - 1)
  in
  let mispredict_flush pos ~blk =
    incr mispredicts;
    for k = pos + 1 to !count - 1 do
      let e = entry_at k in
      squash_entry ~reason:0 e;
      buf.(slot_at k) <- None
    done;
    count := pos + 1;
    Array.fill rmap 0 nregs (-1);
    for k = 0 to pos do
      let e = entry_at k in
      if has_reg_dst e.kind then rmap.(e.dst) <- slot_at k
    done;
    cur_blk := blk;
    next_visit ();
    fetch_halted := false;
    redirect_stall := 1 + model.Machine_model.transition_penalty;
    flush_cycle := true
  in
  let complete_entry e ~pos ~slot =
    let v i =
      match e.srcs.(i) with Ready v -> v | Wait _ -> assert false
    in
    if e.kind = branch_class then begin
      let taken = v 0 <> 0 in
      e.result <- (if taken then 1 else 0);
      e.state <- Done;
      train e taken;
      if taken <> e.predicted then
        mispredict_flush pos ~blk:(if taken then e.t_true else e.t_false)
    end
    else begin
      (* dense dispatch on the Decoded class tags:
         0 alu, 1 mov, 2 load, 3 store, 4 cmp, 5 setc, 6 out, 7 nop *)
      (match e.kind with
      | 0 -> (
          match Opcode.eval_alu e.alu (v 0) (v 1) with
          | r -> e.result <- r
          | exception Opcode.Arithmetic_fault m ->
              e.result <- 0;
              e.fault <- Some (Fault.Arith m);
              eev Events.Fault_deferred ~a:(-1) ~b:0)
      | 1 | 6 -> e.result <- v 0
      | 4 | 5 -> e.result <- (if Opcode.eval_cmp e.cmp (v 0) (v 1) then 1 else 0)
      | 2 -> (
          let addr = v 0 + e.aux in
          e.addr <- addr;
          match forward_from_store pos addr with
          | Some fv ->
              e.result <- fv;
              incr loads_forwarded
          | None -> (
              match Memory.read mem addr with
              | value -> e.result <- value
              | exception Memory.Fault f ->
                  e.result <- 0;
                  e.fault <- Some (Fault.Mem f);
                  eev Events.Fault_deferred ~a:addr ~b:0))
      | 3 -> (
          let addr = v 0 + e.aux in
          e.addr <- addr;
          e.result <- v 1;
          match Memory.probe mem addr with
          | None -> ()
          | Some f ->
              e.fault <- Some (Fault.Mem f);
              eev Events.Fault_deferred ~a:addr ~b:0)
      | _ (* nop *) -> e.result <- 0);
      e.state <- Done;
      if has_reg_dst e.kind then broadcast slot e.result
    end
  in
  let complete_cycle () =
    let k = ref 0 in
    while (not !flush_cycle) && !k < !count do
      let e = entry_at !k in
      (match e.state with
      | Exec n when n <= 1 -> complete_entry e ~pos:!k ~slot:(slot_at !k)
      | Exec n -> e.state <- Exec (n - 1)
      | Waiting | Done -> ());
      incr k
    done
  in
  (* ----- issue ----- *)
  let issue_cycle () =
    let avail c = Machine_model.units_available model c in
    let alu = ref (avail Machine_model.Alu_unit) in
    let br = ref (avail Machine_model.Branch_unit) in
    let ld = ref (avail Machine_model.Load_unit) in
    let st = ref (avail Machine_model.Store_unit) in
    let pending_store = ref false in
    for k = 0 to !count - 1 do
      let e = entry_at k in
      (match e.state with
      | Waiting ->
          let ready =
            Array.for_all
              (function Ready _ -> true | Wait _ -> false)
              e.srcs
          in
          if ready then
            if e.kind = branch_class then begin
              if !br > 0 then begin
                decr br;
                e.state <- Exec model.Machine_model.int_latency
              end
            end
            else begin
              let unit =
                if e.kind = Decoded.kload then ld
                else if e.kind = Decoded.kstore then st
                else alu
              in
              (* total store-queue disambiguation: a load waits until
                 every older store has resolved its address *)
              let blocked = e.kind = Decoded.kload && !pending_store in
              if (not blocked) && !unit > 0 then begin
                decr unit;
                e.state <-
                  Exec
                    (if e.kind = Decoded.kload then
                       model.Machine_model.load_latency
                     else model.Machine_model.int_latency)
              end
            end
      | Exec _ | Done -> ());
      if e.kind = Decoded.kstore && e.state <> Done then pending_store := true
    done
  in
  (* ----- commit ----- *)
  let last_committed_visit = ref 0 in
  let restart_at e =
    incr fault_restarts;
    for k = 0 to !count - 1 do
      let p = entry_at k in
      (* the head's own fault was raised, not discarded *)
      if k = 0 then begin
        eev Events.Rob_squash ~a:p.seq ~b:1;
        incr squashed
      end
      else squash_entry ~reason:1 p;
      buf.(slot_at k) <- None
    done;
    count := 0;
    head := 0;
    Array.fill rmap 0 nregs (-1);
    cur_blk := e.blk;
    cur_idx := e.idx;
    cur_visit := e.visit;
    fetch_halted := false;
    redirect_stall := 1 + model.Machine_model.transition_penalty;
    fault_cycle := true
  in
  let commit_fault e f =
    match f with
    | Fault.Arith _ ->
        eev Events.Fault_raised ~a:(-1) ~b:0;
        raise (Abort f)
    | Fault.Mem _ -> (
        (* Re-probe: an older instruction's commit may already have
           mapped the page (it flushed us too, but be robust); a stale
           fault just restarts without counting a handled fault. *)
        match Memory.probe mem e.addr with
        | Some mf when Memory.is_fatal mf ->
            eev Events.Fault_raised ~a:e.addr ~b:0;
            raise (Abort (Fault.Mem mf))
        | Some mf ->
            assert (Memory.handle_fault mem mf);
            incr faults_handled;
            eev Events.Fault_raised ~a:e.addr ~b:1;
            restart_at e
        | None -> restart_at e)
  in
  let commit_cycle () =
    let budget = ref issue_width in
    let st_budget = ref dcache_ports in
    let stop = ref false in
    while (not !stop) && !budget > 0 && !count > 0 do
      let slot = !head in
      let e = entry_at 0 in
      if e.state <> Done then stop := true
      else
        match e.fault with
        | Some f ->
            commit_fault e f;
            stop := true
        | None ->
            let is_store = e.kind = Decoded.kstore in
            if is_store && !st_budget <= 0 then stop := true
            else begin
              if e.visit <> !last_committed_visit then begin
                last_committed_visit := e.visit;
                eev Events.Region_enter
                  ~a:(region_id d.Decoded.labels.(e.blk))
                  ~b:0
              end;
              if e.kind = branch_class then incr branches
              else if is_store then begin
                Memory.write mem e.addr e.result;
                decr st_budget
              end
              else if e.kind = Decoded.kout then
                output_rev := e.result :: !output_rev
              else if e.kind = Decoded.ksetc then
                conds.(e.dst) <- e.result <> 0
              else if e.kind <> Decoded.knop then begin
                (* alu / mov / load / cmp: architectural writeback *)
                let ri = e.dst in
                arch.(ri) <- e.result;
                written.(ri) <- true;
                if rmap.(ri) = slot then rmap.(ri) <- -1
              end;
              class_counts.(e.kind) <- class_counts.(e.kind) + 1;
              eev Events.Rob_commit ~a:e.seq ~b:slot;
              incr committed;
              incr ncommitted;
              buf.(slot) <- None;
              head := (slot + 1) mod size;
              decr count;
              decr budget
            end
    done
  in
  let head_mem_wait () =
    !count > 0
    &&
    let e = entry_at 0 in
    (e.kind = Decoded.kload || e.kind = Decoded.kstore) && e.state <> Done
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
