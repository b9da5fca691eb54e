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
   - a register write: [dst], [value], [op] (the issuing operation's
     index in the current region, which names its predicate), flag bits
     [wb_flag] = decided sequential at issue, [wb_has_addr] (a load: the
     address [addr], so that a buffered load exception is re-executed
     when it turns out to be committed and recoverable) and [wb_faulted]
     (the buffered exception is in [fault]);
   - a condition write: [dst] the condition, [value] 0 or 1;
   - a store: [addr], [value], [op], [wb_flag] = speculative,
     [wb_faulted] and [fault];
   - an output: [value].
   Every pending item was issued in the current region: a transition
   and a recovery start drain the queue first. So an item names its
   predicate by operation index, and the banks hold no pointer but the
   fault, which is written and copied only when there is one. *)

let wb_reg = 0
let wb_cond = 1
let wb_store = 2
let wb_out = 3

(* flag bits of [w_bits] *)
let wb_flag = 1
let wb_has_addr = 2
let wb_faulted = 4

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
  mutable w_op : int array;
  mutable w_bits : int array;
  mutable w_fault : Fault.t array;
}

let no_fault = Fault.Arith ""

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
    w_op = Array.make cap 0;
    w_bits = Array.make cap 0;
    w_fault = Array.make cap no_fault;
  }

(* Copy the item at physical slot [src] of [q] to slot [dst] of [q']. *)
let wbq_copy q src q' dst =
  q'.w_due.(dst) <- q.w_due.(src);
  q'.w_order.(dst) <- q.w_order.(src);
  q'.w_kind.(dst) <- q.w_kind.(src);
  q'.w_dst.(dst) <- q.w_dst.(src);
  q'.w_value.(dst) <- q.w_value.(src);
  q'.w_addr.(dst) <- q.w_addr.(src);
  q'.w_op.(dst) <- q.w_op.(src);
  let bits = q.w_bits.(src) in
  q'.w_bits.(dst) <- bits;
  if bits land wb_faulted <> 0 then q'.w_fault.(dst) <- q.w_fault.(src)

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
  q.w_op <- fresh.w_op;
  q.w_bits <- fresh.w_bits;
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

(* The buffered exception of the item at slot [p], if any. *)
let wbq_fault q p =
  if q.w_bits.(p) land wb_faulted <> 0 then Some q.w_fault.(p) else None

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

type state = {
  model : Machine_model.t;
  lcode : Lowered.t;
  events : Psb_obs.Events.t option;
  sb_hist : Psb_obs.Metrics.histogram option;
  bundle_hist : Psb_obs.Metrics.histogram option;
  dec : int array;
      (* per-slot issue decisions of the current bundle, sized to the
         widest bundle: 0 = squash, 1 = nonspec, 2 = spec *)
  mem : Memory.t;
  rf : Regfile.t;
  seq : int array; (* [Regfile.values rf] *)
  sb : Store_buffer.t;
  ccr : Ccr.t;
  mutable mode : mode;
  mutable lr : Lowered.region; (* current region; [lr.source]: its pcode *)
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
let load_access st ~addr ~pred =
  match
    (* an empty buffer forwards nothing: skip the search's call *)
    if Store_buffer.length st.sb = 0 then `Miss
    else Store_buffer.forward st.sb ~addr ~load_pred:pred st.ccr
  with
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
let rec load_nonspec st ~addr ~pred =
  st.faulted <- false;
  let v = load_access st ~addr ~pred in
  if not st.faulted then v
  else begin
    handle_or_abort st st.fault;
    (* the forwarded store's page is mapped now *)
    if st.forwarded then v else load_nonspec st ~addr ~pred
  end

(* ----- execute stage -----

   The issue phase hands over the operation's index [i] in the current
   region [lr], whose flat arrays hold its kind, opcodes, offset or
   condition ([op_aux]), destination, latency and predicate, and the
   source operand values [a] and [b] (a load's base; a store's base and
   data). *)

let schedule_reg st ~latency ~dst ~value ~op ~fault ~decided_seq ~has_addr
    ~addr =
  let q = st.wbq in
  let p = wbq_slot q ~due:(st.now + latency) ~order:st.next_order in
  st.next_order <- st.next_order + 1;
  q.w_kind.(p) <- wb_reg;
  q.w_dst.(p) <- dst;
  q.w_value.(p) <- value;
  (* a write decided sequential at issue needs nothing more *)
  if decided_seq then q.w_bits.(p) <- wb_flag
  else begin
    q.w_op.(p) <- op;
    q.w_addr.(p) <- addr;
    let bits = if has_addr then wb_has_addr else 0 in
    match fault with
    | None -> q.w_bits.(p) <- bits
    | Some f ->
        q.w_bits.(p) <- bits lor wb_faulted;
        q.w_fault.(p) <- f
  end

let schedule_store st ~latency ~addr ~value ~op ~spec ~fault =
  let q = st.wbq in
  let p = wbq_slot q ~due:(st.now + latency) ~order:st.next_order in
  st.next_order <- st.next_order + 1;
  q.w_kind.(p) <- wb_store;
  q.w_addr.(p) <- addr;
  q.w_value.(p) <- value;
  q.w_op.(p) <- op;
  let bits = if spec then wb_flag else 0 in
  match fault with
  | None -> q.w_bits.(p) <- bits
  | Some f ->
      q.w_bits.(p) <- bits lor wb_faulted;
      q.w_fault.(p) <- f

let schedule_simple st ~latency kind ~dst ~value =
  let q = st.wbq in
  let p = wbq_slot q ~due:(st.now + latency) ~order:st.next_order in
  st.next_order <- st.next_order + 1;
  q.w_kind.(p) <- kind;
  q.w_dst.(p) <- dst;
  q.w_value.(p) <- value

(* Compute a Mov/ALU/Cmp/Load value; a fault is reported in
   [st.faulted] and [st.fault]. *)
let compute st (lr : Lowered.region) i (k : Lowered.kind) ~a ~b =
  st.faulted <- false;
  match k with
  | Lowered.Kalu -> (
      match Opcode.eval_alu lr.Lowered.op_alu.(i) a b with
      | v -> v
      | exception Opcode.Arithmetic_fault m ->
          st.faulted <- true;
          st.fault <- Fault.Arith m;
          0)
  | Lowered.Kmov -> a
  | Lowered.Kload ->
      load_access st ~addr:(a + lr.Lowered.op_aux.(i))
        ~pred:lr.Lowered.op_pred.(i)
  | Lowered.Kcmp -> if Opcode.eval_cmp lr.Lowered.op_cmp.(i) a b then 1 else 0
  | Lowered.Knop | Lowered.Kout | Lowered.Ksetc | Lowered.Kstore ->
      assert false (* handled by the callers *)

(* Issue operation [i] of [lr], whose predicate evaluated True: execute
   non-speculatively. *)
let issue_nonspec st (lr : Lowered.region) i ~a ~b =
  let latency = lr.Lowered.op_lat.(i) in
  match lr.Lowered.op_kind.(i) with
  | Lowered.Knop -> ()
  | Lowered.Kout -> schedule_simple st ~latency wb_out ~dst:0 ~value:a
  | Lowered.Ksetc ->
      schedule_simple st ~latency wb_cond ~dst:lr.Lowered.op_aux.(i)
        ~value:(if Opcode.eval_cmp lr.Lowered.op_cmp.(i) a b then 1 else 0)
  | Lowered.Kstore ->
      schedule_store st ~latency ~addr:(a + lr.Lowered.op_aux.(i)) ~value:b
        ~op:i ~spec:false ~fault:None
  | (Lowered.Kalu | Lowered.Kmov | Lowered.Kcmp | Lowered.Kload) as k ->
      let v = compute st lr i k ~a ~b in
      let value =
        if not st.faulted then v
        else begin
          (* an arithmetic fault with a true predicate is fatal *)
          handle_or_abort st st.fault;
          match k with
          | Lowered.Kload ->
              if st.forwarded then v
              else
                load_nonspec st ~addr:(a + lr.Lowered.op_aux.(i))
                  ~pred:lr.Lowered.op_pred.(i)
          | _ -> assert false
        end
      in
      schedule_reg st ~latency ~dst:lr.Lowered.op_dst.(i) ~value ~op:i
        ~fault:None ~decided_seq:true ~has_addr:false ~addr:0

(* What a speculative fault will turn into: in recovery mode the future
   condition decides (true → handled now, false → ignored, unspecified →
   buffered again); in normal mode it is buffered. *)
let future_value st pred =
  match st.mode with
  | Normal -> Pred.Unspec
  | Recovery { future; _ } -> Ccr.evalc future pred

(* Resolve the fault [compute] reported for the speculative Mov/ALU/Cmp/
   Load issue of operation [i] and schedule its register write. [v] is
   the value [compute] returned (meaningful only for a forwarded load). *)
let resolve_fault st (lr : Lowered.region) i (k : Lowered.kind) ~a f v =
  let is_load = match k with Lowered.Kload -> true | _ -> false in
  let addr = a + lr.Lowered.op_aux.(i) and pred = lr.Lowered.op_pred.(i) in
  let value, fault =
    match future_value st pred with
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
        else (load_nonspec st ~addr ~pred, None)
  in
  schedule_reg st ~latency:lr.Lowered.op_lat.(i) ~dst:lr.Lowered.op_dst.(i)
    ~value ~op:i ~fault ~decided_seq:false ~has_addr:is_load ~addr

(* Issue operation [i] of [lr], whose predicate is unspecified: execute
   speculatively. *)
let issue_spec st (lr : Lowered.region) i ~a ~b =
  st.spec_ops <- st.spec_ops + 1;
  match lr.Lowered.op_kind.(i) with
  | Lowered.Knop -> ()
  | Lowered.Kout ->
      machine_error "side-effecting Out issued with an unspecified predicate"
  | Lowered.Ksetc ->
      machine_error "Setc issued with an unspecified predicate (must be alw)"
  | Lowered.Kstore ->
      let addr = a + lr.Lowered.op_aux.(i) in
      let fault =
        match Memory.probe st.mem addr with
        | None -> None
        | Some f -> (
            match future_value st lr.Lowered.op_pred.(i) with
            | Pred.Unspec ->
                eev st Psb_obs.Events.Fault_deferred ~a:addr ~b:0;
                Some (Fault.Mem f)
            | Pred.False -> None
            | Pred.True ->
                handle_or_abort st (Fault.Mem f);
                None)
      in
      schedule_store st ~latency:lr.Lowered.op_lat.(i) ~addr ~value:b ~op:i
        ~spec:true ~fault
  | (Lowered.Kalu | Lowered.Kmov | Lowered.Kcmp | Lowered.Kload) as k ->
      let v = compute st lr i k ~a ~b in
      if st.faulted then resolve_fault st lr i k ~a st.fault v
      else
        schedule_reg st ~latency:lr.Lowered.op_lat.(i)
          ~dst:lr.Lowered.op_dst.(i) ~value:v ~op:i ~fault:None
          ~decided_seq:false ~has_addr:false ~addr:0

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
      ~pred:st.lr.Lowered.op_pred.(q.w_op.(p))
      ~spec:(q.w_bits.(p) land wb_flag <> 0)
      ~fault:(wbq_fault q p);
    `Ok
  end
  else
    let dst = q.w_dst.(p) and bits = q.w_bits.(p) in
    if bits land wb_flag <> 0 then begin
      Regfile.write_seq st.rf dst q.w_value.(p);
      `Ok
    end
    else
      let pred = st.lr.Lowered.op_pred.(q.w_op.(p)) in
      match Ccr.evalc st.ccr pred with
      | Pred.False ->
          st.wb_squashes <- st.wb_squashes + 1;
          `Ok (* squashed in flight *)
      | Pred.True ->
          (* Committed during execution (like i6 in Table 1). A fault
             surfacing here is a committed exception caught before
             buffering: handle it like a normal exception. *)
          let value =
            if bits land wb_faulted = 0 then q.w_value.(p)
            else begin
              let addr = q.w_addr.(p) in
              handle_or_abort st q.w_fault.(p);
              if bits land wb_has_addr <> 0 then load_nonspec st ~addr ~pred
              else assert false
            end
          in
          Regfile.write_seq st.rf dst value;
          `Ok
      | Pred.Unspec ->
          Regfile.write_spec st.rf dst q.w_value.(p) ~pred
            ~fault:(wbq_fault q p)

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
    let last_due = q.w_due.((q.head + q.n - 1) land q.mask) in
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
    if last_due > st.now then last_due - st.now else 0
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
    let k = q.w_kind.(p) and sq = q.w_bits.(p) land wb_flag <> 0 in
    let spec = (k = wb_reg && not sq) || (k = wb_store && sq) in
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

let region_name (lr : Lowered.region) = lr.Lowered.source.Pcode.name

(* A region transition to region [tidx] ([-1]: stop): events,
   accounting, the writeback-drain interlock and the squash of leftover
   speculative state; then the halt, or the next region, which is an
   array read. *)
let take_exit st ~tidx =
  eev st Psb_obs.Events.Region_exit
    ~a:(region_id st (region_name st.lr))
    ~b:
      (if tidx < 0 then -1
       else region_id st (region_name st.lcode.Lowered.regions.(tidx)));
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
  Ccr.reset st.ccr;
  if tidx < 0 then begin
    drain_store_buffer st;
    (try Store_buffer.drain_all st.sb st.mem
     with Memory.Fault f ->
       handle_or_abort st (Fault.Mem f);
       Store_buffer.drain_all st.sb st.mem);
    raise Halted_exn
  end;
  st.lr <- st.lcode.Lowered.regions.(tidx);
  eev st Psb_obs.Events.Region_enter
    ~a:(region_id st (region_name st.lr))
    ~b:0;
  st.pc <- 0

(* ----- issue phase (stage 5 of the cycle) -----

   The walk over the flat arrays of [Lowered]: the store flag, operands,
   latency and exit targets were resolved ahead of time, once per
   region. *)

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

(* Operand fetch: a register (shadow version if flagged) or an
   immediate. *)
let[@inline] operand st ~pred reg imm shadow =
  if reg < 0 then imm
  else if shadow then Regfile.read st.rf reg ~shadow ~pred
  else st.seq.(reg)

(* The stall tests, then the bundle at [st.pc]: decide every operation
   slot, issue the executed ones in slot order, scan the exits, and
   charge the cycle to its accounting category. *)
let issue st ~conflict =
  let lr = st.lr and pc = st.pc in
  let nbundles = lr.Lowered.nbundles in
  if
    pc < nbundles && lr.Lowered.has_store.(pc)
    && Store_buffer.length st.sb >= st.model.Machine_model.sb_capacity
  then stall_sb st
  else if conflict then stall_conflict st
  else begin
    st.consecutive_stalls <- 0;
    if pc >= nbundles then
      machine_error "ran off the end of region %s (exits not exhaustive)"
        (Label.name (region_name lr));
    st.dyn_bundles <- st.dyn_bundles + 1;
    let in_recovery = match st.mode with Recovery _ -> true | Normal -> false in
    let lo = lr.Lowered.op_bounds.(pc) and hi = lr.Lowered.op_bounds.(pc + 1) in
    (* The one predicate evaluation per slot, made up front so that the
       bundle's events and accounting can never disagree with what
       executed: 0 = squash, 1 = non-speculative, 2 = speculative. *)
    let dec = st.dec in
    Ccr.evalc_range st.ccr lr.Lowered.op_pred ~lo ~hi dec;
    let nexec = ref 0 in
    for j = 0 to hi - lo - 1 do
      let d = dec.(j) in
      if d = 1 && in_recovery then dec.(j) <- 0
      else if d > 0 then incr nexec
    done;
    eev st Psb_obs.Events.Issue ~a:!nexec ~b:(hi - lo - !nexec);
    (match st.bundle_hist with
    | Some h -> Psb_obs.Metrics.observe h (float_of_int !nexec)
    | None -> ());
    for i = lo to hi - 1 do
      let j = i - lo in
      let d = dec.(j) in
      if d = 0 then st.squashed_ops <- st.squashed_ops + 1
      else begin
        st.dyn_ops <- st.dyn_ops + 1;
        eev st Psb_obs.Events.Op_issue ~a:pc
          ~b:(if d = 2 then (2 * j) + 1 else 2 * j);
        let pred = lr.Lowered.op_pred.(i) in
        let a =
          operand st ~pred lr.Lowered.op_s1_reg.(i) lr.Lowered.op_s1_imm.(i)
            lr.Lowered.op_s1_sh.(i)
        and b =
          operand st ~pred lr.Lowered.op_s2_reg.(i) lr.Lowered.op_s2_imm.(i)
            lr.Lowered.op_s2_sh.(i)
        in
        if d = 2 then issue_spec st lr i ~a ~b else issue_nonspec st lr i ~a ~b
      end
    done;
    (* Exits are tested after the operations, in slot order: the first
       whose predicate is true fires. A Setc may share a bundle with an
       exit that does not fire (Figure 4 bundles them); if it fires, the
       pending condition write is caught at the transition. *)
    let fired =
      Ccr.first_true st.ccr lr.Lowered.ex_pred ~lo:lr.Lowered.ex_bounds.(pc)
        ~hi:lr.Lowered.ex_bounds.(pc + 1)
    in
    if fired >= 0 && in_recovery then
      machine_error "exit fired during recovery mode";
    st.kind <-
      (if in_recovery then Krecovery
       else if !nexec > 0 || fired >= 0 then Kuseful
       else Ksquashed);
    st.pc <- pc + 1;
    if fired >= 0 then take_exit st ~tidx:lr.Lowered.ex_target.(fired)
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
        Regfile.committing_exceptions st.rf (Ccr.get future) <> []
        || Store_buffer.committing_exceptions st.sb (Ccr.get future) <> []
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
  if Regfile.has_spec st.rf then Regfile.tick ~dirty st.rf st.ccr;
  if Store_buffer.has_spec st.sb then Store_buffer.tick ~dirty st.sb st.ccr;
  (* Sample occupancy after commit/squash but before the drain — this is
     the point where buffered state held across the cycle is visible. *)
  note_sb_occupancy st;
  (* 4. Store buffer drains to the D-cache. *)
  if Store_buffer.length st.sb > 0 then drain_store_buffer st;
  (* 5. Issue one bundle (unless stalled on a shadow-storage conflict). *)
  issue st ~conflict:!conflict

let default_fuel = 60_000_000

let run ?(fuel = default_fuel) ?(regfile_mode = Regfile.Single) ?lowered
    ?events ?metrics ~model ~regs ~mem (code : Pcode.t) =
  let lcode =
    match lowered with
    | Some (l : Lowered.t) ->
        if l.Lowered.source != code then
          invalid_arg
            "Vliw_sim.run: lowered form was compiled from a different pcode";
        if l.Lowered.machine <> model then
          invalid_arg
            "Vliw_sim.run: lowered form was compiled for a different machine \
             model";
        l
    | None -> Lowered.compile ~machine:model code
  in
  let nregs =
    List.fold_left
      (fun acc (r, _) -> max acc (Reg.index r + 1))
      lcode.Lowered.nregs regs
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
  let rf = Regfile.create ~mode:regfile_mode ?events ~nregs () in
  let st =
    {
      model;
      lcode;
      events;
      sb_hist;
      bundle_hist;
      dec = Array.make lcode.Lowered.max_bundle_ops 0;
      mem;
      rf;
      seq = Regfile.values rf;
      sb = Store_buffer.create ?events ();
      ccr = Ccr.create ~width:model.Machine_model.ccr_size;
      mode = Normal;
      lr = lcode.Lowered.regions.(lcode.Lowered.entry);
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
  eev st Psb_obs.Events.Region_enter ~a:(region_id st (region_name st.lr)) ~b:0;
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
