open Psb_isa

type stats = {
  dyn_bundles : int;
  dyn_ops : int;
  squashed_ops : int;
  spec_ops : int;
  commits : int;
  squashes : int;
  recoveries : int;
  recovery_cycles : int;
  shadow_conflicts : int;
  conflict_stall_cycles : int;
  sb_max_occupancy : int;
  sb_stall_cycles : int;
  region_transitions : int;
}

type breakdown = {
  bd_useful : int;
  bd_squashed : int;
  bd_shadow_stall : int;
  bd_sb_stall : int;
  bd_recovery : int;
  bd_transition : int;
}

let breakdown_fields b =
  [
    ("useful_issue", b.bd_useful);
    ("squashed_issue", b.bd_squashed);
    ("shadow_conflict_stall", b.bd_shadow_stall);
    ("store_buffer_stall", b.bd_sb_stall);
    ("recovery", b.bd_recovery);
    ("region_transition", b.bd_transition);
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
    (fun (name, v) ->
      Format.fprintf ppf "%-22s %10d  %5.1f%%@," name v (pct v))
    (breakdown_fields b);
  Format.fprintf ppf "%-22s %10d@]" "total" total

type result = {
  outcome : Interp.outcome;
  output : int list;
  cycles : int;
  regs : int Reg.Map.t;
  faults_handled : int;
  stats : stats;
  breakdown : breakdown;
}

exception Machine_error of string

let machine_error fmt = Format.kasprintf (fun s -> raise (Machine_error s)) fmt

(* ----- in-flight writebacks -----

   The writeback queue is a ring of flat banks kept sorted by (due,
   order), so the items due this cycle are a prefix, applied by popping
   the front. An item enters by shifting the ones that sort after it up
   from the tail; the pending depth is a few items, so inserts stay
   cheap, and nothing is allocated once the banks are big enough. Each
   item is one of four kinds:
   - a register write: [dst], [value], [cpred], the buffered [fault],
     [flag] = decided sequential at issue, and the load address [addr]
     when [has_addr] (a buffered load exception is re-executed when it
     turns out to be committed and recoverable);
   - a condition write: [dst] the condition, [value] 0 or 1;
   - a store: [addr], [value], [cpred], [flag] = speculative, [fault];
   - an output: [value]. *)

let wb_reg = 0
let wb_cond = 1
let wb_store = 2
let wb_out = 3

type wbq = {
  mutable head : int;
  mutable n : int;
  mutable mask : int;  (* capacity - 1, a power of two minus one *)
  mutable w_due : int array;
  mutable w_order : int array;
  mutable w_kind : int array;
  mutable w_dst : int array;
  mutable w_value : int array;
  mutable w_addr : int array;
  mutable w_flag : bool array;
  mutable w_has_addr : bool array;
  mutable w_cpred : Pred.compiled array;
  mutable w_fault : Fault.t option array;
}

let wbq_create cap =
  {
    head = 0;
    n = 0;
    mask = cap - 1;
    w_due = Array.make cap 0;
    w_order = Array.make cap 0;
    w_kind = Array.make cap 0;
    w_dst = Array.make cap 0;
    w_value = Array.make cap 0;
    w_addr = Array.make cap 0;
    w_flag = Array.make cap false;
    w_has_addr = Array.make cap false;
    w_cpred = Array.make cap Pred.compiled_always;
    w_fault = Array.make cap None;
  }

(* Copy the item at physical slot [src] of [q] to slot [dst] of [q']. *)
let wbq_copy q src q' dst =
  q'.w_due.(dst) <- q.w_due.(src);
  q'.w_order.(dst) <- q.w_order.(src);
  q'.w_kind.(dst) <- q.w_kind.(src);
  q'.w_dst.(dst) <- q.w_dst.(src);
  q'.w_value.(dst) <- q.w_value.(src);
  q'.w_addr.(dst) <- q.w_addr.(src);
  q'.w_flag.(dst) <- q.w_flag.(src);
  q'.w_has_addr.(dst) <- q.w_has_addr.(src);
  q'.w_cpred.(dst) <- q.w_cpred.(src);
  q'.w_fault.(dst) <- q.w_fault.(src)

let wbq_move q ~dst ~src = wbq_copy q src q dst

let wbq_grow q =
  let fresh = wbq_create (2 * (q.mask + 1)) in
  for i = 0 to q.n - 1 do
    wbq_copy q ((q.head + i) land q.mask) fresh i
  done;
  q.head <- 0;
  q.mask <- fresh.mask;
  q.w_due <- fresh.w_due;
  q.w_order <- fresh.w_order;
  q.w_kind <- fresh.w_kind;
  q.w_dst <- fresh.w_dst;
  q.w_value <- fresh.w_value;
  q.w_addr <- fresh.w_addr;
  q.w_flag <- fresh.w_flag;
  q.w_has_addr <- fresh.w_has_addr;
  q.w_cpred <- fresh.w_cpred;
  q.w_fault <- fresh.w_fault

(* Open a slot for an item keyed ([due], [order]) at its sorted
   position; returns its physical index with the key filled in. At least
   one slot beyond the live items always stays free, so the slot the
   last pop freed survives a following insert. *)
let wbq_slot q ~due ~order =
  if q.n + 2 > q.mask + 1 then wbq_grow q;
  let i = ref q.n in
  while
    !i > 0
    &&
    let p = (q.head + !i - 1) land q.mask in
    q.w_due.(p) > due || (q.w_due.(p) = due && q.w_order.(p) > order)
  do
    wbq_move q ~dst:((q.head + !i) land q.mask)
      ~src:((q.head + !i - 1) land q.mask);
    decr i
  done;
  let p = (q.head + !i) land q.mask in
  q.w_due.(p) <- due;
  q.w_order.(p) <- order;
  q.n <- q.n + 1;
  p

(* Remove the front item; its fields stay readable at the returned
   physical slot until the next insert after another pop. *)
let wbq_pop q =
  let p = q.head in
  q.head <- (p + 1) land q.mask;
  q.n <- q.n - 1;
  p

(* The front item's due cycle; the queue must not be empty. *)
let wbq_front_due q = q.w_due.(q.head)

(* Put back the item just popped from slot [p], now due at [due], with
   its issue order. *)
let wbq_requeue q p ~due =
  let p' = wbq_slot q ~due ~order:q.w_order.(p) in
  wbq_move q ~dst:p' ~src:p;
  q.w_due.(p') <- due

type mode = Normal | Recovery of { future : Ccr.t; epc : int }

(* Category of the cycle currently being simulated; bumped into the
   accounting counters when the cycle completes (in [run]'s loop), so a
   cycle aborted mid-way by a fatal fault is charged to no category —
   exactly matching [st.now], which that cycle never increments. *)
type cycle_kind = Kuseful | Ksquashed | Kshadow_stall | Ksb_stall | Krecovery

exception Abort of Fault.t
exception Halted_exn
exception Fuel_exhausted
exception Cycle_done
(* Ends the current cycle early (recovery initiation). *)

type exec_kernel = Lowered | Tree

(* Which representation the issue phase walks ([exec_kernel] resolved
   to runtime state). [Elow] carries the lowered program and the lowered
   image of the current region, kept in lock-step with [st.region]. *)
type low_state = { lcode : Lowered.t; mutable lr : Lowered.region }

type exec_repr = Etree | Elow of low_state

type state = {
  model : Machine_model.t;
  exec : exec_repr;
  events : Psb_obs.Events.t option;
  sb_hist : Psb_obs.Metrics.histogram option;
  bundle_hist : Psb_obs.Metrics.histogram option;
  code : Pcode.t;
  dec : int array;
      (* per-slot issue decisions of the current bundle, sized to the
         widest bundle: 0 = squash, 1 = nonspec, 2 = spec *)
  mem : Memory.t;
  rf : Regfile.t;
  sb : Store_buffer.t;
  ccr : Ccr.t;
  mutable mode : mode;
  mutable region : Pcode.region;
  mutable pc : int;
  mutable now : int;
  wbq : wbq;
  mutable next_order : int;
  (* one cycle's condition writes, in application order; consumers read
     them newest first, as they applied the list that preceded them *)
  mutable cw_cond : int array;
  mutable cw_val : bool array;
  mutable cw_n : int;
  (* out-of-band fault report of [compute]/[load_access]: whether the
     access faulted, the fault (meaningful only then, and written only
     then), and whether the returned value was forwarded from a
     store-buffer entry *)
  mutable faulted : bool;
  mutable fault : Fault.t;
  mutable forwarded : bool;
  mutable output_rev : int list;
  mutable faults_handled : int;
  (* statistics *)
  mutable dyn_bundles : int;
  mutable dyn_ops : int;
  mutable squashed_ops : int;
  mutable spec_ops : int;
  mutable recoveries : int;
  mutable recovery_cycles : int;
  mutable conflict_stall_cycles : int;
  mutable consecutive_stalls : int;
  mutable region_transitions : int;
  mutable sb_stall_cycles : int;
  mutable wb_squashes : int; (* results squashed in flight (pred false at WB) *)
  (* cycle accounting *)
  mutable kind : cycle_kind;
  mutable acct_useful : int;
  mutable acct_squashed : int;
  mutable acct_shadow_stall : int;
  mutable acct_sb_stall : int;
  mutable acct_recovery : int;
  mutable acct_transition : int;
  mutable last_sb_occ : int;
}

(* Event-ring emission. One branch on the option when absent — the
   per-cycle hot path must not allocate. *)
let[@inline] eev st kind ~a ~b =
  match st.events with
  | None -> ()
  | Some e -> Psb_obs.Events.emit e ~cycle:st.now kind ~a ~b

let region_id st label =
  match st.events with
  | None -> -1
  | Some e -> Psb_obs.Events.intern e (Label.name label)

(* Keep the regfile/store-buffer cycle stamps in step with [st.now]; they
   emit events from inside their own operations. *)
let sync_now st =
  match st.events with
  | None -> ()
  | Some _ ->
      Regfile.set_now st.rf st.now;
      Store_buffer.set_now st.sb st.now

let fault_addr = function
  | Fault.Mem (Memory.Out_of_bounds a) | Fault.Mem (Memory.Unmapped a) -> a
  | Fault.Arith _ -> -1

(* Emitted only when the occupancy changed, to keep traces small. *)
let note_sb_occupancy st =
  (match st.sb_hist with
  | Some h -> Psb_obs.Metrics.observe h (float_of_int (Store_buffer.length st.sb))
  | None -> ());
  match st.events with
  | None -> ()
  | Some e ->
      let occ = Store_buffer.length st.sb in
      if occ <> st.last_sb_occ then begin
        st.last_sb_occ <- occ;
        Psb_obs.Events.emit e ~cycle:st.now Psb_obs.Events.Sb_occupancy ~a:occ
          ~b:0
      end

let handle_or_abort st fault =
  if Fault.recoverable fault then begin
    (match fault with
    | Fault.Mem f -> assert (Memory.handle_fault st.mem f)
    | Fault.Arith _ -> assert false);
    eev st Psb_obs.Events.Fault_raised ~a:(fault_addr fault) ~b:1;
    st.faults_handled <- st.faults_handled + 1
  end
  else begin
    eev st Psb_obs.Events.Fault_raised ~a:(fault_addr fault) ~b:0;
    raise (Abort fault)
  end

(* A load access: store-buffer forwarding first, then the D-cache.
   Returns the value; a fault is reported in [st.faulted] (cleared by
   the caller) and [st.fault], with [st.forwarded] telling whether the
   value came from a store whose own exception is buffered. *)
let load_access st ~addr ~cpred =
  match Store_buffer.forward st.sb ~addr ~load_cpred:cpred st.ccr with
  | `Hit ->
      (match Store_buffer.forwarded_fault st.sb with
      | None -> ()
      | Some f ->
          st.faulted <- true;
          st.fault <- f;
          st.forwarded <- true);
      Store_buffer.forwarded_value st.sb
  | `Commit_dependence ->
      machine_error "commit-dependence violation: load at %d hits an unresolved speculative store" addr
  | `Miss -> (
      match Memory.read st.mem addr with
      | v -> v
      | exception Memory.Fault f ->
          st.faulted <- true;
          st.fault <- Fault.Mem f;
          st.forwarded <- false;
          0)

(* Non-speculative load: faults are handled on the spot (or abort). *)
let rec load_nonspec st ~addr ~cpred =
  st.faulted <- false;
  let v = load_access st ~addr ~cpred in
  if not st.faulted then v
  else begin
    handle_or_abort st st.fault;
    (* the forwarded store's page is mapped now *)
    if st.forwarded then v else load_nonspec st ~addr ~cpred
  end

(* ----- execute stage, shared by both kernels -----

   Each kernel decodes its own representation down to the same decoded
   operation: the [Lowered.kind] tag, the ALU/compare opcode, the source
   operand values [a] and [b] (a load's base; a store's base and data),
   [aux] (the address offset, or the condition index a [Setc] writes),
   the destination register index, the latency and the compiled
   predicate. From there on there is one copy of the §3 issue rule. *)

let schedule_reg st ~latency ~dst ~value ~cpred ~fault ~decided_seq
    ~has_addr ~addr =
  let q = st.wbq in
  let p = wbq_slot q ~due:(st.now + latency) ~order:st.next_order in
  st.next_order <- st.next_order + 1;
  q.w_kind.(p) <- wb_reg;
  q.w_dst.(p) <- dst;
  q.w_value.(p) <- value;
  q.w_flag.(p) <- decided_seq;
  (* a write decided sequential at issue needs nothing more *)
  if not decided_seq then begin
    q.w_cpred.(p) <- cpred;
    q.w_fault.(p) <- fault;
    q.w_has_addr.(p) <- has_addr;
    q.w_addr.(p) <- addr
  end

let schedule_store st ~latency ~addr ~value ~cpred ~spec ~fault =
  let q = st.wbq in
  let p = wbq_slot q ~due:(st.now + latency) ~order:st.next_order in
  st.next_order <- st.next_order + 1;
  q.w_kind.(p) <- wb_store;
  q.w_addr.(p) <- addr;
  q.w_value.(p) <- value;
  q.w_cpred.(p) <- cpred;
  q.w_flag.(p) <- spec;
  q.w_fault.(p) <- fault

let schedule_simple st ~latency kind ~dst ~value =
  let q = st.wbq in
  let p = wbq_slot q ~due:(st.now + latency) ~order:st.next_order in
  st.next_order <- st.next_order + 1;
  q.w_kind.(p) <- kind;
  q.w_dst.(p) <- dst;
  q.w_value.(p) <- value

(* Compute a Mov/ALU/Cmp/Load value; a fault is reported in
   [st.faulted] and [st.fault]. *)
let compute st (k : Lowered.kind) ~alu ~cmp ~a ~b ~aux ~cpred =
  st.faulted <- false;
  match k with
  | Lowered.Kalu -> (
      match Opcode.eval_alu alu a b with
      | v -> v
      | exception Opcode.Arithmetic_fault m ->
          st.faulted <- true;
          st.fault <- Fault.Arith m;
          0)
  | Lowered.Kmov -> a
  | Lowered.Kload -> load_access st ~addr:(a + aux) ~cpred
  | Lowered.Kcmp -> if Opcode.eval_cmp cmp a b then 1 else 0
  | Lowered.Knop | Lowered.Kout | Lowered.Ksetc | Lowered.Kstore ->
      assert false (* handled by the callers *)

(* Issue one operation whose predicate evaluated True: execute
   non-speculatively. *)
let issue_nonspec st (k : Lowered.kind) ~alu ~cmp ~a ~b ~aux ~dst ~latency
    ~cpred =
  match k with
  | Lowered.Knop -> ()
  | Lowered.Kout -> schedule_simple st ~latency wb_out ~dst:0 ~value:a
  | Lowered.Ksetc ->
      schedule_simple st ~latency wb_cond ~dst:aux
        ~value:(if Opcode.eval_cmp cmp a b then 1 else 0)
  | Lowered.Kstore ->
      schedule_store st ~latency ~addr:(a + aux) ~value:b ~cpred ~spec:false
        ~fault:None
  | Lowered.Kalu | Lowered.Kmov | Lowered.Kcmp | Lowered.Kload ->
      let v = compute st k ~alu ~cmp ~a ~b ~aux ~cpred in
      let value =
        if not st.faulted then v
        else begin
          (* an arithmetic fault with a true predicate is fatal *)
          handle_or_abort st st.fault;
          if k <> Lowered.Kload then assert false
          else if st.forwarded then v
          else load_nonspec st ~addr:(a + aux) ~cpred
        end
      in
      schedule_reg st ~latency ~dst ~value ~cpred ~fault:None
        ~decided_seq:true ~has_addr:false ~addr:0

(* What a speculative fault will turn into: in recovery mode the future
   condition decides (true → handled now, false → ignored, unspecified →
   buffered again); in normal mode it is buffered. *)
let future_value st cpred =
  match st.mode with
  | Normal -> Pred.Unspec
  | Recovery { future; _ } -> Ccr.evalc future cpred

(* Resolve the fault [compute] reported for a speculative Mov/ALU/Cmp/
   Load issue and schedule its register write. [v] is the value
   [compute] returned (meaningful only for a forwarded load). *)
let resolve_fault st (k : Lowered.kind) ~a ~aux ~dst ~latency ~cpred f v =
  let is_load = k = Lowered.Kload in
  let addr = a + aux in
  let value, fault =
    match future_value st cpred with
    | Pred.Unspec ->
        eev st Psb_obs.Events.Fault_deferred ~a:(if is_load then addr else -1)
          ~b:0;
        (0, Some f)
    | Pred.False -> (0, None) (* ignored: result squashes under the future *)
    | Pred.True ->
        let forwarded = st.forwarded in
        handle_or_abort st f;
        if not is_load then (0, None)
        else if forwarded then (v, None)
        else (load_nonspec st ~addr ~cpred, None)
  in
  schedule_reg st ~latency ~dst ~value ~cpred ~fault ~decided_seq:false
    ~has_addr:is_load ~addr

(* Issue one operation whose predicate is unspecified: execute
   speculatively. *)
let issue_spec st (k : Lowered.kind) ~alu ~cmp ~a ~b ~aux ~dst ~latency
    ~cpred =
  st.spec_ops <- st.spec_ops + 1;
  match k with
  | Lowered.Knop -> ()
  | Lowered.Kout ->
      machine_error "side-effecting Out issued with an unspecified predicate"
  | Lowered.Ksetc ->
      machine_error "Setc issued with an unspecified predicate (must be alw)"
  | Lowered.Kstore ->
      let addr = a + aux in
      let fault =
        match Memory.probe st.mem addr with
        | None -> None
        | Some f -> (
            match future_value st cpred with
            | Pred.Unspec ->
                eev st Psb_obs.Events.Fault_deferred ~a:addr ~b:0;
                Some (Fault.Mem f)
            | Pred.False -> None
            | Pred.True ->
                handle_or_abort st (Fault.Mem f);
                None)
      in
      schedule_store st ~latency ~addr ~value:b ~cpred ~spec:true ~fault
  | Lowered.Kalu | Lowered.Kmov | Lowered.Kcmp | Lowered.Kload -> (
      let v = compute st k ~alu ~cmp ~a ~b ~aux ~cpred in
      if st.faulted then resolve_fault st k ~a ~aux ~dst ~latency ~cpred st.fault v
      else
        schedule_reg st ~latency ~dst ~value:v ~cpred ~fault:None
          ~decided_seq:false ~has_addr:false ~addr:0)

let[@inline] execute st ~spec k ~alu ~cmp ~a ~b ~aux ~dst ~latency ~cpred =
  if spec then issue_spec st k ~alu ~cmp ~a ~b ~aux ~dst ~latency ~cpred
  else issue_nonspec st k ~alu ~cmp ~a ~b ~aux ~dst ~latency ~cpred

let push_cond st c v =
  if st.cw_n = Array.length st.cw_cond then begin
    let n = 2 * st.cw_n in
    let cc = Array.make n 0 and cv = Array.make n false in
    Array.blit st.cw_cond 0 cc 0 st.cw_n;
    Array.blit st.cw_val 0 cv 0 st.cw_n;
    st.cw_cond <- cc;
    st.cw_val <- cv
  end;
  st.cw_cond.(st.cw_n) <- c;
  st.cw_val.(st.cw_n) <- v;
  st.cw_n <- st.cw_n + 1

(* Apply the writeback at physical queue slot [p]. Returns [`Conflict]
   when a speculative register write hits an occupied shadow entry
   (single-shadow model): the caller requeues it and stalls issue. *)
let apply_wb st p =
  let q = st.wbq in
  let k = q.w_kind.(p) in
  if k = wb_out then begin
    st.output_rev <- q.w_value.(p) :: st.output_rev;
    `Ok
  end
  else if k = wb_cond then begin
    push_cond st q.w_dst.(p) (q.w_value.(p) <> 0);
    `Ok
  end
  else if k = wb_store then begin
    Store_buffer.append st.sb ~addr:q.w_addr.(p) ~value:q.w_value.(p)
      ~cpred:q.w_cpred.(p) ~spec:q.w_flag.(p) ~fault:q.w_fault.(p);
    `Ok
  end
  else
    let dst = q.w_dst.(p) in
    if q.w_flag.(p) then begin
      Regfile.write_seq st.rf dst q.w_value.(p);
      `Ok
    end
    else
      let cpred = q.w_cpred.(p) in
      match Ccr.evalc st.ccr cpred with
      | Pred.False ->
          st.wb_squashes <- st.wb_squashes + 1;
          `Ok (* squashed in flight *)
      | Pred.True ->
          (* Committed during execution (like i6 in Table 1). A fault
             surfacing here is a committed exception caught before
             buffering: handle it like a normal exception. *)
          let value =
            match q.w_fault.(p) with
            | None -> q.w_value.(p)
            | Some f ->
                let has_addr = q.w_has_addr.(p) and addr = q.w_addr.(p) in
                handle_or_abort st f;
                if has_addr then load_nonspec st ~addr ~cpred else assert false
          in
          Regfile.write_seq st.rf dst value;
          `Ok
      | Pred.Unspec ->
          Regfile.write_spec st.rf dst q.w_value.(p) ~cpred
            ~fault:q.w_fault.(p)

(* A condition's value under the pending writes, the newest first. *)
let rec lookup_pending st c i =
  if i < 0 then Ccr.get st.ccr c
  else if st.cw_cond.(i) = c then if st.cw_val.(i) then Pred.T else Pred.F
  else lookup_pending st c (i - 1)

(* Detection (§3.5): would applying the pending condition writes commit a
   buffered speculative exception? *)
let detect st =
  (Regfile.buffered_faults st.rf > 0 || Store_buffer.buffered_faults st.sb > 0)
  &&
  let lookup c = lookup_pending st c (st.cw_n - 1) in
  Regfile.committing_exceptions st.rf lookup <> []
  || Store_buffer.committing_exceptions st.sb lookup <> []

let rec drain_store_buffer st =
  match
    Store_buffer.drain st.sb ~max:st.model.Machine_model.dcache_ports st.mem
  with
  | _ -> ()
  | exception Memory.Fault f ->
      handle_or_abort st (Fault.Mem f);
      drain_store_buffer st

(* Complete all in-flight writebacks (used at region transitions: the
   machine interlocks until outstanding latencies drain). Returns the
   number of extra cycles charged. *)
let flush_pending st ~allow_cond =
  let q = st.wbq in
  if q.n = 0 then 0
  else begin
    let last_due = max st.now q.w_due.((q.head + q.n - 1) land q.mask) in
    st.cw_n <- 0;
    while q.n > 0 do
      (* a conflict is dead: speculative state is about to be squashed *)
      ignore (apply_wb st (wbq_pop q))
    done;
    if st.cw_n > 0 && not allow_cond then
      machine_error "Setc write pending at region exit";
    for i = st.cw_n - 1 downto 0 do
      Ccr.set st.ccr st.cw_cond.(i) st.cw_val.(i)
    done;
    st.cw_n <- 0;
    max 0 (last_due - st.now)
  end

let start_recovery st ~future =
  eev st Psb_obs.Events.Recovery_start ~a:st.pc ~b:0;
  st.recoveries <- st.recoveries + 1;
  (* Invalidate all speculative state: this establishes the precise
     interrupt point. In-flight non-speculative writebacks complete, in
     order; speculative ones are dropped with the shadow state they
     target. *)
  let q = st.wbq in
  let kept = ref 0 in
  for i = 0 to q.n - 1 do
    let p = (q.head + i) land q.mask in
    let k = q.w_kind.(p) in
    let spec =
      (k = wb_reg && not q.w_flag.(p)) || (k = wb_store && q.w_flag.(p))
    in
    if not spec then begin
      wbq_move q ~dst:((q.head + !kept) land q.mask) ~src:p;
      incr kept
    end
  done;
  q.n <- !kept;
  st.cw_n <- 0;
  while q.n > 0 do
    ignore (apply_wb st (wbq_pop q))
  done;
  if st.cw_n > 0 then
    machine_error "non-speculative Setc pending across exception detection";
  Regfile.invalidate_spec st.rf;
  Store_buffer.invalidate_spec st.sb;
  st.mode <- Recovery { future; epc = st.pc };
  st.pc <- 0

(* Region-transition work common to both execution kernels: events,
   accounting, the writeback-drain interlock and the squash of leftover
   speculative state. The caller then installs the next region (or
   halts). *)
let exit_prologue st (target : Pcode.exit_target) =
  eev st Psb_obs.Events.Region_exit
    ~a:(region_id st st.region.Pcode.name)
    ~b:
      (match target with
      | Pcode.Stop -> -1
      | Pcode.To_region l -> region_id st l);
  st.region_transitions <- st.region_transitions + 1;
  let extra = flush_pending st ~allow_cond:false in
  st.acct_transition <-
    st.acct_transition + extra + st.model.Machine_model.transition_penalty;
  st.now <- st.now + extra + st.model.Machine_model.transition_penalty;
  sync_now st;
  (* A final resolve pass: writebacks applied during the flush may have
     buffered state whose predicate is already decided. *)
  Regfile.tick ~dirty:(-1) st.rf st.ccr;
  Store_buffer.tick ~dirty:(-1) st.sb st.ccr;
  (* Whatever speculative state remains belongs to untaken paths of the
     region being left (closed-region property): squash it. *)
  Regfile.invalidate_spec st.rf;
  Store_buffer.invalidate_spec st.sb;
  Ccr.reset st.ccr

let exit_stop st =
  drain_store_buffer st;
  (try Store_buffer.drain_all st.sb st.mem
   with Memory.Fault f ->
     handle_or_abort st (Fault.Mem f);
     Store_buffer.drain_all st.sb st.mem);
  raise Halted_exn

let take_exit st (target : Pcode.exit_target) =
  exit_prologue st target;
  match target with
  | Pcode.Stop -> exit_stop st
  | Pcode.To_region l ->
      st.region <- Pcode.find_region st.code l;
      eev st Psb_obs.Events.Region_enter ~a:(region_id st l) ~b:0;
      st.pc <- 0

(* Lowered transition: the fired exit carries its target's region index,
   so entering the next region is an array read. [st.region] follows so
   diagnostics and events name the right region. *)
let take_exit_low st ls ~tidx (target : Pcode.exit_target) =
  exit_prologue st target;
  if tidx < 0 then exit_stop st
  else begin
    ls.lr <- ls.lcode.Lowered.regions.(tidx);
    st.region <- ls.lr.Lowered.source;
    eev st Psb_obs.Events.Region_enter
      ~a:(region_id st st.region.Pcode.name)
      ~b:0;
    st.pc <- 0
  end

(* ----- issue phase (stage 5 of the cycle) -----

   Each kernel fetches and decodes its own representation: the tree
   kernel walks the [Pcode] slot lists, the lowered kernel the flat
   arrays of [Lowered]. The stall tests, the per-slot issue decisions,
   the bundle bookkeeping, the execute stage and the exit test are
   shared, so the kernels can only differ in what [Lowered.compile]
   resolves ahead of time. The per-slot helpers are [@inline] so that
   sharing them costs the lowered kernel no calls. *)

let stall_sb st =
  (* structural hazard: a store cannot enter the full FIFO; bundles
     without stores flow past (otherwise the condition-set instruction
     that resolves the blocking speculative head could never issue) *)
  st.sb_stall_cycles <- st.sb_stall_cycles + 1;
  st.kind <- Ksb_stall;
  eev st Psb_obs.Events.Stall ~a:1 ~b:0;
  st.consecutive_stalls <- st.consecutive_stalls + 1;
  if st.consecutive_stalls > 10_000 then
    machine_error "store buffer never drains (speculative head stuck)"

let stall_conflict st =
  st.conflict_stall_cycles <- st.conflict_stall_cycles + 1;
  st.kind <- Kshadow_stall;
  eev st Psb_obs.Events.Stall ~a:0 ~b:0;
  st.consecutive_stalls <- st.consecutive_stalls + 1;
  (* A conflict that never resolves means the scheduler violated the
     shadow-storage WAW commit dependence: the blocking predicate can
     only specify through a Setc that the stall itself is blocking. *)
  if st.consecutive_stalls > 10_000 then
    machine_error
      "shadow storage conflict deadlock (WAW commit dependence violated)"

(* The stall tests, then fetch. Returns whether the bundle at [st.pc]
   issues this cycle. *)
let fetch st ~conflict ~has_store ~nbundles =
  if
    Store_buffer.length st.sb >= st.model.Machine_model.sb_capacity
    && has_store
  then (
    stall_sb st;
    false)
  else if conflict then (
    stall_conflict st;
    false)
  else begin
    st.consecutive_stalls <- 0;
    if st.pc >= nbundles then
      machine_error "ran off the end of region %s (exits not exhaustive)"
        (Label.name st.region.Pcode.name);
    st.dyn_bundles <- st.dyn_bundles + 1;
    true
  end

let recovering st = match st.mode with Recovery _ -> true | Normal -> false

(* The one predicate evaluation of the bundle's [j]th operation slot. The
   decision is made once, up front, so the bundle's events and accounting
   can never disagree with what actually executed. *)
let[@inline] decide st ~in_recovery j cpred =
  st.dec.(j) <-
    (match Ccr.evalc st.ccr cpred with
    | Pred.False -> 0
    | Pred.True -> if in_recovery then 0 else 1
    | Pred.Unspec -> 2)

(* Once all [nops] slots are decided: the bundle's event and histogram
   sample. Returns the executed-slot count. *)
let note_bundle st ~nops =
  let nexec = ref 0 in
  for j = 0 to nops - 1 do
    if st.dec.(j) > 0 then incr nexec
  done;
  eev st Psb_obs.Events.Issue ~a:!nexec ~b:(nops - !nexec);
  (match st.bundle_hist with
  | Some h -> Psb_obs.Metrics.observe h (float_of_int !nexec)
  | None -> ());
  !nexec

(* Slot [j]'s bookkeeping, in slot order: a squashed slot is counted, an
   executed one counted and announced. Returns its decision. *)
let[@inline] note_slot st j =
  let d = st.dec.(j) in
  if d = 0 then st.squashed_ops <- st.squashed_ops + 1
  else begin
    st.dyn_ops <- st.dyn_ops + 1;
    eev st Psb_obs.Events.Op_issue ~a:st.pc
      ~b:(if d = 2 then (2 * j) + 1 else 2 * j)
  end;
  d

(* Exits are tested after the operations, in slot order, until one
   fires: the first whose predicate is true. *)
let[@inline] exit_fires st ~in_recovery cpred =
  match Ccr.evalc st.ccr cpred with
  | Pred.True ->
      if in_recovery then machine_error "exit fired during recovery mode";
      true
  | Pred.False | Pred.Unspec -> false

(* Charge the cycle to its accounting category and advance the PC. *)
let end_bundle st ~in_recovery ~nexec ~fired =
  st.kind <-
    (if in_recovery then Krecovery
     else if nexec > 0 || fired then Kuseful
     else Ksquashed);
  st.pc <- st.pc + 1

(* Tree decode: operand values from the [Operand.t] variants, the
   latency from the machine model. *)
let issue_tree_op st ~spec (pi : Pcode.pinstr) ~latency =
  let cpred = pi.Pcode.cpred in
  let reg r =
    Regfile.read st.rf r ~shadow:(Reg.Set.mem r pi.Pcode.shadow_srcs) ~cpred
  in
  let opnd = function Operand.Reg r -> reg r | Operand.Imm i -> i in
  let go ?(alu = Opcode.Add) ?(cmp = Opcode.Eq) ?(aux = 0) ?(dst = -1) k a b =
    execute st ~spec k ~alu ~cmp ~a ~b ~aux ~dst ~latency ~cpred
  in
  match pi.Pcode.op with
  | Instr.Nop -> go Lowered.Knop 0 0
  | Instr.Out o -> go Lowered.Kout (opnd o) 0
  | Instr.Mov { dst; src } -> go Lowered.Kmov ~dst (opnd src) 0
  | Instr.Alu { op; dst; a; b } ->
      go Lowered.Kalu ~alu:op ~dst (opnd a) (opnd b)
  | Instr.Cmp { op; dst; a; b } ->
      go Lowered.Kcmp ~cmp:op ~dst (opnd a) (opnd b)
  | Instr.Load { dst; base; off } -> go Lowered.Kload ~dst ~aux:off (reg base) 0
  | Instr.Store { src; base; off } ->
      go Lowered.Kstore ~aux:off (reg base) (reg src)
  | Instr.Setc { dst; op; a; b } ->
      go Lowered.Ksetc ~cmp:op ~aux:(Cond.index dst) (opnd a) (opnd b)

let issue_tree st ~conflict =
  let code = st.region.Pcode.code in
  let has_store =
    st.pc < Array.length code
    && List.exists
         (function
           | Pcode.Op { op = Instr.Store _; _ } -> true
           | Pcode.Op _ | Pcode.Exit _ -> false)
         code.(st.pc)
  in
  if fetch st ~conflict ~has_store ~nbundles:(Array.length code) then begin
    let bundle = code.(st.pc) in
    let in_recovery = recovering st in
    let ops =
      List.filter_map
        (function Pcode.Op pi -> Some pi | Pcode.Exit _ -> None)
        bundle
    in
    List.iteri (fun j pi -> decide st ~in_recovery j pi.Pcode.cpred) ops;
    let nexec = note_bundle st ~nops:(List.length ops) in
    List.iteri
      (fun j pi ->
        let d = note_slot st j in
        if d > 0 then
          issue_tree_op st ~spec:(d = 2) pi
            ~latency:(Machine_model.latency st.model pi.Pcode.op))
      ops;
    (* A Setc may share a bundle with an exit as long as that exit does
       not fire (Figure 4 bundles them); if it fires, the pending
       condition write is caught at the transition (flush_pending). *)
    let target =
      List.find_map
        (function
          | Pcode.Op _ -> None
          | Pcode.Exit { cpred; target; _ } ->
              if exit_fires st ~in_recovery cpred then Some target else None)
        bundle
    in
    end_bundle st ~in_recovery ~nexec ~fired:(target <> None);
    Option.iter (take_exit st) target
  end

(* Lowered operand fetch: a register (shadow version if flagged) or an
   immediate. *)
let[@inline] operand st ~cpred reg imm shadow =
  if reg >= 0 then Regfile.read st.rf reg ~shadow ~cpred else imm

(* The lowered kernel: the same stages over the flat arrays, with the
   store flag, operands, latency and exit targets resolved ahead of
   time. *)
let issue_low st ls ~conflict =
  let lr = ls.lr in
  let nbundles = lr.Lowered.nbundles in
  let has_store = st.pc < nbundles && lr.Lowered.has_store.(st.pc) in
  if fetch st ~conflict ~has_store ~nbundles then begin
    let in_recovery = recovering st in
    let lo = lr.Lowered.op_bounds.(st.pc)
    and hi = lr.Lowered.op_bounds.(st.pc + 1) in
    for i = lo to hi - 1 do
      decide st ~in_recovery (i - lo) lr.Lowered.op_cpred.(i)
    done;
    let nexec = note_bundle st ~nops:(hi - lo) in
    for i = lo to hi - 1 do
      let d = note_slot st (i - lo) in
      if d > 0 then begin
        let cpred = lr.Lowered.op_cpred.(i) in
        execute st ~spec:(d = 2) lr.Lowered.op_kind.(i)
          ~alu:lr.Lowered.op_alu.(i) ~cmp:lr.Lowered.op_cmp.(i)
          ~a:
            (operand st ~cpred lr.Lowered.op_s1_reg.(i)
               lr.Lowered.op_s1_imm.(i) lr.Lowered.op_s1_sh.(i))
          ~b:
            (operand st ~cpred lr.Lowered.op_s2_reg.(i)
               lr.Lowered.op_s2_imm.(i) lr.Lowered.op_s2_sh.(i))
          ~aux:lr.Lowered.op_aux.(i) ~dst:lr.Lowered.op_dst.(i)
          ~latency:lr.Lowered.op_lat.(i) ~cpred
      end
    done;
    let fired = ref (-1) and j = ref lr.Lowered.ex_bounds.(st.pc) in
    let xhi = lr.Lowered.ex_bounds.(st.pc + 1) in
    while !fired < 0 && !j < xhi do
      if exit_fires st ~in_recovery lr.Lowered.ex_cpred.(!j) then fired := !j;
      incr j
    done;
    end_bundle st ~in_recovery ~nexec ~fired:(!fired >= 0);
    if !fired >= 0 then
      take_exit_low st ls
        ~tidx:lr.Lowered.ex_target.(!fired)
        lr.Lowered.ex_tgt.(!fired)
  end

let step st ~fuel =
  if st.now > fuel then raise Fuel_exhausted;
  sync_now st;
  (* 0. Recovery completion: reaching the EPC ends recovery mode; the
     future condition becomes the current condition (checked through the
     detection path like any CCR update). *)
  let pending_assign =
    match st.mode with
    | Recovery { future; epc } when st.pc = epc ->
        st.mode <- Normal;
        eev st Psb_obs.Events.Recovery_end ~a:0 ~b:0;
        Some future
    | Recovery _ | Normal -> None
  in
  (match st.mode with
  | Recovery _ -> st.recovery_cycles <- st.recovery_cycles + 1
  | Normal -> ());
  (* 1. Apply writebacks due this cycle. *)
  let q = st.wbq in
  st.cw_n <- 0;
  let conflict = ref false in
  while q.n > 0 && wbq_front_due q <= st.now do
    let p = wbq_pop q in
    match apply_wb st p with
    | `Ok -> ()
    | `Conflict ->
        conflict := true;
        wbq_requeue q p ~due:(st.now + 1)
  done;
  (* 2. CCR update with exception detection. *)
  (match pending_assign with
  | Some future ->
      assert (st.cw_n = 0);
      if
        Regfile.committing_exceptions st.rf (Ccr.lookup future) <> []
        || Store_buffer.committing_exceptions st.sb (Ccr.lookup future) <> []
      then machine_error "detection while leaving recovery";
      Ccr.assign st.ccr ~from:future
  | None ->
      if st.cw_n > 0 && detect st then begin
        match st.mode with
        | Recovery _ -> machine_error "exception detection during recovery"
        | Normal ->
            (* Suppress the CCR update; the new value goes to the future
               CCR (§3.5). *)
            let future = Ccr.copy st.ccr in
            for i = st.cw_n - 1 downto 0 do
              Ccr.set future st.cw_cond.(i) st.cw_val.(i)
            done;
            start_recovery st ~future;
            st.kind <- Krecovery;
            raise Cycle_done (* re-execution starts next cycle *)
      end
      else
        for i = st.cw_n - 1 downto 0 do
          let c = st.cw_cond.(i) and v = st.cw_val.(i) in
          Ccr.set st.ccr c v;
          eev st
            (if v then Psb_obs.Events.Pred_true else Psb_obs.Events.Pred_false)
            ~a:(Cond.index c) ~b:0
        done);
  (* 3. Commit/squash the buffered speculative state, gated by the
     conditions written since the previous tick. *)
  let dirty = Ccr.take_dirty st.ccr in
  Regfile.tick ~dirty st.rf st.ccr;
  Store_buffer.tick ~dirty st.sb st.ccr;
  (* Sample occupancy after commit/squash but before the drain — this is
     the point where buffered state held across the cycle is visible. *)
  note_sb_occupancy st;
  (* 4. Store buffer drains to the D-cache. *)
  if Store_buffer.length st.sb > 0 then drain_store_buffer st;
  (* 5. Issue one bundle (unless stalled on a shadow-storage conflict),
     through whichever execution kernel this run selected. *)
  match st.exec with
  | Etree -> issue_tree st ~conflict:!conflict
  | Elow ls -> issue_low st ls ~conflict:!conflict

let default_fuel = 60_000_000

let run ?(fuel = default_fuel) ?(regfile_mode = Regfile.Single)
    ?(exec_kernel = Lowered) ?lowered ?events ?metrics ~model ~regs
    ~mem (code : Pcode.t) =
  let exec, region0, nregs, width =
    match exec_kernel with
    | Tree ->
        ( Etree,
          Pcode.find_region code code.Pcode.entry,
          Lowered.count_regs code,
          Pcode.num_slots code (* bounds the widest bundle *) )
    | Lowered ->
        let low =
          match lowered with
          | Some (l : Lowered.t) ->
              if l.Lowered.source != code then
                invalid_arg
                  "Vliw_sim.run: lowered form was compiled from a different \
                   pcode";
              if l.Lowered.machine <> model then
                invalid_arg
                  "Vliw_sim.run: lowered form was compiled for a different \
                   machine model";
              l
          | None -> Lowered.compile ~machine:model code
        in
        let lr = low.Lowered.regions.(low.Lowered.entry) in
        ( Elow { lcode = low; lr },
          lr.Lowered.source,
          low.Lowered.nregs,
          low.Lowered.max_bundle_ops )
  in
  let nregs =
    List.fold_left (fun acc (r, _) -> max acc (Reg.index r + 1)) nregs regs
  in
  let sb_hist =
    Option.map
      (fun m ->
        Psb_obs.Metrics.histogram m "vliw_sb_occupancy"
          ~buckets:[ 0.; 1.; 2.; 4.; 8.; 16.; 32. ])
      metrics
  in
  let bundle_hist =
    Option.map
      (fun m ->
        Psb_obs.Metrics.histogram m "vliw_bundle_ops"
          ~buckets:[ 0.; 1.; 2.; 3.; 4.; 6.; 8.; 16. ])
      metrics
  in
  let st =
    {
      model;
      exec;
      events;
      sb_hist;
      bundle_hist;
      code;
      dec = Array.make width 0;
      mem;
      rf = Regfile.create ~mode:regfile_mode ?events ~nregs ();
      sb = Store_buffer.create ?events ();
      ccr = Ccr.create ~width:model.Machine_model.ccr_size;
      mode = Normal;
      region = region0;
      pc = 0;
      now = 0;
      wbq = wbq_create 16;
      next_order = 0;
      cw_cond = Array.make 8 0;
      cw_val = Array.make 8 false;
      cw_n = 0;
      faulted = false;
      fault = Fault.Arith "";
      forwarded = false;
      output_rev = [];
      faults_handled = 0;
      dyn_bundles = 0;
      dyn_ops = 0;
      squashed_ops = 0;
      spec_ops = 0;
      recoveries = 0;
      recovery_cycles = 0;
      conflict_stall_cycles = 0;
      consecutive_stalls = 0;
      region_transitions = 0;
      sb_stall_cycles = 0;
      wb_squashes = 0;
      kind = Kuseful;
      acct_useful = 0;
      acct_squashed = 0;
      acct_shadow_stall = 0;
      acct_sb_stall = 0;
      acct_recovery = 0;
      acct_transition = 0;
      last_sb_occ = 0;
    }
  in
  List.iter (fun (r, v) -> Regfile.write_seq st.rf r v) regs;
  eev st Psb_obs.Events.Region_enter
    ~a:(region_id st st.region.Pcode.name)
    ~b:0;
  let finish outcome =
    let breakdown =
      {
        bd_useful = st.acct_useful;
        bd_squashed = st.acct_squashed;
        bd_shadow_stall = st.acct_shadow_stall;
        bd_sb_stall = st.acct_sb_stall;
        bd_recovery = st.acct_recovery;
        bd_transition = st.acct_transition;
      }
    in
    (match metrics with
    | None -> ()
    | Some m ->
        let open Psb_obs.Metrics in
        let c name v = inc (counter m name) ~by:v in
        c "vliw_cycles_total" st.now;
        c "vliw_dyn_bundles" st.dyn_bundles;
        c "vliw_dyn_ops" st.dyn_ops;
        c "vliw_spec_ops" st.spec_ops;
        c "vliw_recoveries" st.recoveries;
        c "vliw_shadow_conflicts" (Regfile.conflicts st.rf);
        let g name label v = inc (counter m name ~labels:[ label ]) ~by:v in
        g "vliw_tick_entries" ("gate", "examined")
          (Regfile.tick_examined st.rf + Store_buffer.tick_examined st.sb);
        g "vliw_tick_entries" ("gate", "skipped")
          (Regfile.tick_skipped st.rf + Store_buffer.tick_skipped st.sb);
        g "vliw_pred_evals" ("kind", "mask") (Ccr.evals_mask st.ccr);
        List.iter
          (fun (cat, v) ->
            inc (counter m "vliw_cycles" ~labels:[ ("category", cat) ]) ~by:v)
          (breakdown_fields breakdown));
    {
      outcome;
      output = List.rev st.output_rev;
      cycles = st.now;
      regs = Regfile.final_state st.rf;
      faults_handled = st.faults_handled;
      stats =
        {
          dyn_bundles = st.dyn_bundles;
          dyn_ops = st.dyn_ops;
          squashed_ops = st.squashed_ops;
          spec_ops = st.spec_ops;
          commits = Regfile.commits st.rf + Store_buffer.commits st.sb;
          squashes =
            Regfile.squashes st.rf + Store_buffer.squashes st.sb
            + st.wb_squashes;
          recoveries = st.recoveries;
          recovery_cycles = st.recovery_cycles;
          shadow_conflicts = Regfile.conflicts st.rf;
          conflict_stall_cycles = st.conflict_stall_cycles;
          sb_max_occupancy = Store_buffer.max_occupancy st.sb;
          sb_stall_cycles = st.sb_stall_cycles;
          region_transitions = st.region_transitions;
        };
      breakdown;
    }
  in
  let bump_kind () =
    match st.kind with
    | Kuseful -> st.acct_useful <- st.acct_useful + 1
    | Ksquashed -> st.acct_squashed <- st.acct_squashed + 1
    | Kshadow_stall -> st.acct_shadow_stall <- st.acct_shadow_stall + 1
    | Ksb_stall -> st.acct_sb_stall <- st.acct_sb_stall + 1
    | Krecovery -> st.acct_recovery <- st.acct_recovery + 1
  in
  let rec loop () =
    (try step st ~fuel with Cycle_done -> ());
    bump_kind ();
    st.now <- st.now + 1;
    loop ()
  in
  try loop () with
  | Halted_exn ->
      bump_kind ();
      st.now <- st.now + 1;
      finish Interp.Halted
  | Abort f ->
      (* Stores semantically before the fault must be visible, as on the
         scalar machine. *)
      Regfile.invalidate_spec st.rf;
      Store_buffer.invalidate_spec st.sb;
      (try Store_buffer.drain_all st.sb st.mem with Memory.Fault _ -> ());
      finish (Interp.Fatal f)
  | Fuel_exhausted -> finish Interp.Out_of_fuel
