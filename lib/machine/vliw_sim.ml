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

type stall_reason = Shadow_conflict | Store_buffer_full

type event =
  | Reg_commit of Reg.t
  | Reg_squash of Reg.t
  | Store_commit of int
  | Store_squash of int
  | Exception_detected
  | Recovery_done
  | Region_exit of Pcode.exit_target
  | Bundle_issue of {
      region : Label.t;
      pc : int;
      ops : int;
      squashed : int;
      spec : int;
    }
  | Op_issue of { op : Instr.op; pred : Pred.t; spec : bool; latency : int }
  | Stall of stall_reason
  | Cond_set of Cond.t * bool
  | Sb_occupancy of int

let pp_event ppf = function
  | Reg_commit r -> Format.fprintf ppf "commit %a" Reg.pp r
  | Reg_squash r -> Format.fprintf ppf "squash %a" Reg.pp r
  | Store_commit a -> Format.fprintf ppf "commit sb@%d" a
  | Store_squash a -> Format.fprintf ppf "squash sb@%d" a
  | Exception_detected -> Format.pp_print_string ppf "exception detected"
  | Recovery_done -> Format.pp_print_string ppf "recovery done"
  | Region_exit (Pcode.To_region l) -> Format.fprintf ppf "exit -> %a" Label.pp l
  | Region_exit Pcode.Stop -> Format.pp_print_string ppf "exit -> halt"
  | Bundle_issue { region; pc; ops; squashed; spec } ->
      Format.fprintf ppf "issue %a[%d]: %d ops (%d spec, %d squashed)"
        Label.pp region pc ops spec squashed
  | Op_issue { op; spec; latency; _ } ->
      Format.fprintf ppf "op%s %a (latency %d)"
        (if spec then ".s" else "")
        Instr.pp_op op latency
  | Stall Shadow_conflict -> Format.pp_print_string ppf "stall: shadow conflict"
  | Stall Store_buffer_full ->
      Format.pp_print_string ppf "stall: store buffer full"
  | Cond_set (c, v) -> Format.fprintf ppf "%a := %b" Cond.pp c v
  | Sb_occupancy n -> Format.fprintf ppf "sb occupancy %d" n

exception Machine_error of string

let machine_error fmt = Format.kasprintf (fun s -> raise (Machine_error s)) fmt

(* Writebacks in flight. [load_addr] lets a buffered load exception be
   re-executed when it turns out to be committed and recoverable. *)
type wb =
  | Wreg of {
      dst : Reg.t;
      value : int;
      cpred : Pred.compiled;
      fault : Fault.t option;
      decided_seq : bool;
      load_addr : int option;
    }
  | Wcond of { dst : Cond.t; value : bool }
  | Wstore of {
      addr : int;
      value : int;
      cpred : Pred.compiled;
      spec : bool;
      fault : Fault.t option;
    }
  | Wout of int

type pending = { due : int; order : int; action : wb }

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
  on_event : (int -> event -> unit) option;
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
  mutable pending : pending list;
  mutable next_order : int;
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

let emit st ev =
  match st.on_event with None -> () | Some f -> f st.now ev

(* Structured event-log emission (the [?events] channel). One branch on
   the option when absent — the per-cycle hot path must not allocate. *)
let eev st kind ~a ~b =
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

let observing st = st.on_event <> None

(* Emitted only when the occupancy changed, to keep traces small. *)
let note_sb_occupancy st =
  (match st.sb_hist with
  | Some h -> Psb_obs.Metrics.observe h (float_of_int (Store_buffer.length st.sb))
  | None -> ());
  if observing st then begin
    let occ = Store_buffer.length st.sb in
    if occ <> st.last_sb_occ then begin
      st.last_sb_occ <- occ;
      emit st (Sb_occupancy occ)
    end
  end

let schedule st ~latency action =
  st.pending <- { due = st.now + latency; order = st.next_order; action } :: st.pending;
  st.next_order <- st.next_order + 1

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
   Returns the value, or the fault if the access faults. *)
let load_access st ~addr ~load_pred =
  match Store_buffer.forward st.sb ~addr ~load_pred st.ccr with
  | `Hit (v, None) -> Ok v
  | `Hit (v, Some f) -> Error (f, Some v)
  | `Commit_dependence ->
      machine_error "commit-dependence violation: load at %d hits an unresolved speculative store" addr
  | `Miss -> (
      match Memory.read st.mem addr with
      | v -> Ok v
      | exception Memory.Fault f -> Error (Fault.Mem f, None))

(* Non-speculative load: faults are handled on the spot (or abort). *)
let rec load_nonspec st ~addr ~load_pred =
  match load_access st ~addr ~load_pred with
  | Ok v -> v
  | Error (f, forwarded) -> (
      handle_or_abort st f;
      match forwarded with
      | Some v -> v (* the forwarded store's page is mapped now *)
      | None -> load_nonspec st ~addr ~load_pred)

(* ----- execute stage, shared by both kernels -----

   Each kernel decodes its own representation down to the same decoded
   operation: the [Lowered.kind] tag, the ALU/compare opcode, the source
   operand values [a] and [b] (a load's base; a store's base and data),
   [aux] (the address offset, or the condition index a [Setc] writes),
   the destination register index, the latency and the predicate in both
   forms. From there on there is one copy of the §3 issue rule. *)

(* Compute a Mov/ALU/Cmp/Load value; faults become [Error]. *)
let compute st (k : Lowered.kind) ~alu ~cmp ~a ~b ~aux ~pred =
  match k with
  | Lowered.Kalu -> (
      match Opcode.eval_alu alu a b with
      | v -> Ok v
      | exception Opcode.Arithmetic_fault m -> Error (Fault.Arith m, None))
  | Lowered.Kmov -> Ok a
  | Lowered.Kload -> (
      let addr = a + aux in
      match load_access st ~addr ~load_pred:pred with
      | Ok v -> Ok v
      | Error (f, fw) -> Error (f, Some (addr, fw)))
  | Lowered.Kcmp -> Ok (if Opcode.eval_cmp cmp a b then 1 else 0)
  | Lowered.Knop | Lowered.Kout | Lowered.Ksetc | Lowered.Kstore ->
      assert false (* handled by the callers *)

(* Issue one operation whose predicate evaluated True: execute
   non-speculatively. *)
let issue_nonspec st (k : Lowered.kind) ~alu ~cmp ~a ~b ~aux ~dst ~latency
    ~pred ~cpred =
  match k with
  | Lowered.Knop -> ()
  | Lowered.Kout -> schedule st ~latency (Wout a)
  | Lowered.Ksetc ->
      schedule st ~latency
        (Wcond { dst = aux; value = Opcode.eval_cmp cmp a b })
  | Lowered.Kstore ->
      schedule st ~latency
        (Wstore
           { addr = a + aux; value = b; cpred; spec = false; fault = None })
  | Lowered.Kalu | Lowered.Kmov | Lowered.Kcmp | Lowered.Kload ->
      let value =
        match compute st k ~alu ~cmp ~a ~b ~aux ~pred with
        | Ok v -> v
        | Error (f, Some (addr, forwarded)) -> (
            handle_or_abort st f;
            match forwarded with
            | Some v -> v
            | None -> load_nonspec st ~addr ~load_pred:pred)
        | Error (f, None) ->
            (* Arithmetic fault with a true predicate: fatal. *)
            handle_or_abort st f;
            assert false
      in
      schedule st ~latency
        (Wreg
           {
             dst;
             value;
             cpred;
             fault = None;
             decided_seq = true;
             load_addr = None;
           })

(* Issue one operation whose predicate is unspecified: execute
   speculatively. In recovery mode a fault consults the future condition:
   true → handled now, false → ignored, unspecified → buffered again. *)
let issue_spec st (k : Lowered.kind) ~alu ~cmp ~a ~b ~aux ~dst ~latency ~pred
    ~cpred =
  st.spec_ops <- st.spec_ops + 1;
  let future_value () =
    match st.mode with
    | Normal -> Pred.Unspec
    | Recovery { future; _ } -> Ccr.evalc future cpred
  in
  let resolve_fault f ~addr_info =
    (* Decide what to do with a speculative fault. Returns
       (value, buffered fault). *)
    match future_value () with
    | Pred.Unspec ->
        eev st Psb_obs.Events.Fault_deferred
          ~a:(match addr_info with Some (addr, _) -> addr | None -> -1)
          ~b:0;
        (0, Some f)
    | Pred.False -> (0, None) (* ignored: result squashes under the future *)
    | Pred.True -> (
        handle_or_abort st f;
        match addr_info with
        | None -> (0, None)
        | Some (addr, forwarded) -> (
            match forwarded with
            | Some v -> (v, None)
            | None -> (load_nonspec st ~addr ~load_pred:pred, None)))
  in
  match k with
  | Lowered.Knop -> ()
  | Lowered.Kout ->
      machine_error "side-effecting Out issued with an unspecified predicate"
  | Lowered.Ksetc ->
      machine_error "Setc issued with an unspecified predicate (must be alw)"
  | Lowered.Kstore ->
      let addr = a + aux in
      let fault = Option.map (fun f -> Fault.Mem f) (Memory.probe st.mem addr) in
      let fault =
        match fault with
        | None -> None
        | Some f -> (
            match future_value () with
            | Pred.Unspec ->
                eev st Psb_obs.Events.Fault_deferred ~a:addr ~b:0;
                Some f
            | Pred.False -> None
            | Pred.True ->
                handle_or_abort st f;
                None)
      in
      schedule st ~latency
        (Wstore { addr; value = b; cpred; spec = true; fault })
  | Lowered.Kalu | Lowered.Kmov | Lowered.Kcmp | Lowered.Kload ->
      let value, fault, load_addr =
        match compute st k ~alu ~cmp ~a ~b ~aux ~pred with
        | Ok v -> (v, None, None)
        | Error (f, (Some (addr, _) as ai)) ->
            let v, bf = resolve_fault f ~addr_info:ai in
            (v, bf, Some addr)
        | Error (f, None) ->
            let v, bf = resolve_fault f ~addr_info:None in
            (v, bf, None)
      in
      schedule st ~latency
        (Wreg { dst; value; cpred; fault; decided_seq = false; load_addr })

let[@inline] execute st ~spec k ~alu ~cmp ~a ~b ~aux ~dst ~latency ~pred
    ~cpred =
  if spec then issue_spec st k ~alu ~cmp ~a ~b ~aux ~dst ~latency ~pred ~cpred
  else issue_nonspec st k ~alu ~cmp ~a ~b ~aux ~dst ~latency ~pred ~cpred

(* Apply one due writeback. Returns [`Conflict] when a speculative register
   write hits an occupied shadow entry (single-shadow model): the caller
   requeues it and stalls issue. *)
let apply_wb st action ~cond_writes =
  match action with
  | Wout v ->
      st.output_rev <- v :: st.output_rev;
      `Ok
  | Wcond { dst; value } ->
      cond_writes := (dst, value) :: !cond_writes;
      `Ok
  | Wstore { addr; value; cpred; spec; fault } ->
      Store_buffer.append st.sb ~addr ~value ~cpred ~spec ~fault;
      `Ok
  | Wreg { dst; value; cpred; fault; decided_seq; load_addr } ->
      if decided_seq then begin
        Regfile.write_seq st.rf dst value;
        `Ok
      end
      else begin
        match Ccr.evalc st.ccr cpred with
        | Pred.False ->
            st.wb_squashes <- st.wb_squashes + 1;
            `Ok (* squashed in flight *)
        | Pred.True ->
            (* Committed during execution (like i6 in Table 1). A fault
               surfacing here is a committed exception caught before
               buffering: handle it like a normal exception. *)
            let value =
              match fault with
              | None -> value
              | Some f -> (
                  handle_or_abort st f;
                  match load_addr with
                  | Some addr ->
                      load_nonspec st ~addr ~load_pred:(Pred.source cpred)
                  | None -> assert false)
            in
            Regfile.write_seq st.rf dst value;
            `Ok
        | Pred.Unspec -> (
            match Regfile.write_spec st.rf dst value ~cpred ~fault with
            | `Ok -> `Ok
            | `Conflict -> `Conflict)
      end

let lookup_with st writes c =
  match List.assoc_opt c writes with
  | Some v -> if v then Pred.T else Pred.F
  | None -> Ccr.get st.ccr c

(* Detection (§3.5): would applying the pending condition writes commit a
   buffered speculative exception? *)
let detect st writes =
  let lookup = lookup_with st writes in
  Regfile.committing_exceptions st.rf lookup <> []
  || Store_buffer.committing_exceptions st.sb lookup <> []

let drain_store_buffer st =
  let rec go () =
    match Store_buffer.drain st.sb ~max:st.model.Machine_model.dcache_ports st.mem with
    | _ -> ()
    | exception Memory.Fault f ->
        handle_or_abort st (Fault.Mem f);
        go ()
  in
  go ()

(* Complete all in-flight writebacks (used at region transitions: the
   machine interlocks until outstanding latencies drain). Returns the
   number of extra cycles charged. *)
let flush_pending st ~allow_cond =
  if st.pending = [] then 0
  else begin
    let last_due = List.fold_left (fun m p -> max m p.due) st.now st.pending in
    let ps =
      List.sort (fun a b -> compare (a.due, a.order) (b.due, b.order)) st.pending
    in
    st.pending <- [];
    let cond_writes = ref [] in
    List.iter
      (fun p ->
        match apply_wb st p.action ~cond_writes with
        | `Ok -> ()
        | `Conflict -> () (* dead: speculative state is about to be squashed *))
      ps;
    if !cond_writes <> [] && not allow_cond then
      machine_error "Setc write pending at region exit";
    List.iter (fun (c, v) -> Ccr.set st.ccr c v) !cond_writes;
    max 0 (last_due - st.now)
  end

let start_recovery st ~future =
  emit st Exception_detected;
  st.recoveries <- st.recoveries + 1;
  (* Invalidate all speculative state: this establishes the precise
     interrupt point. In-flight non-speculative writebacks complete;
     speculative ones are dropped with the shadow state they target. *)
  let spec, nonspec =
    List.partition
      (fun p ->
        match p.action with
        | Wreg { decided_seq; _ } -> not decided_seq
        | Wstore { spec; _ } -> spec
        | Wcond _ | Wout _ -> false)
      st.pending
  in
  ignore spec;
  st.pending <- nonspec;
  let cond_writes = ref [] in
  let ps = List.sort (fun a b -> compare (a.due, a.order) (b.due, b.order)) st.pending in
  st.pending <- [];
  List.iter (fun p -> ignore (apply_wb st p.action ~cond_writes)) ps;
  if !cond_writes <> [] then
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
  emit st (Region_exit target);
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
  ignore (Regfile.tick ~dirty:(-1) st.rf st.ccr);
  ignore (Store_buffer.tick ~dirty:(-1) st.sb st.ccr);
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
  emit st (Stall Store_buffer_full);
  st.consecutive_stalls <- st.consecutive_stalls + 1;
  if st.consecutive_stalls > 10_000 then
    machine_error "store buffer never drains (speculative head stuck)"

let stall_conflict st =
  st.conflict_stall_cycles <- st.conflict_stall_cycles + 1;
  st.kind <- Kshadow_stall;
  emit st (Stall Shadow_conflict);
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

(* Once all [nops] slots are decided: the bundle's events and histogram
   sample. Returns the executed-slot count. *)
let note_bundle st ~in_recovery ~nops =
  let nexec = ref 0 and nspec = ref 0 in
  for j = 0 to nops - 1 do
    let d = st.dec.(j) in
    if d > 0 then incr nexec;
    if d = 2 then incr nspec
  done;
  let nsq = nops - !nexec in
  if not in_recovery then eev st Psb_obs.Events.Issue ~a:!nexec ~b:nsq;
  if observing st then
    emit st
      (Bundle_issue
         {
           region = st.region.Pcode.name;
           pc = st.pc;
           ops = !nexec;
           squashed = nsq;
           spec = !nspec;
         });
  (match st.bundle_hist with
  | Some h -> Psb_obs.Metrics.observe h (float_of_int !nexec)
  | None -> ());
  !nexec

(* Slot [j]'s bookkeeping, in slot order: a squashed slot is counted, an
   executed one counted and announced. Returns its decision. *)
let[@inline] note_slot st j (pi : Pcode.pinstr) ~latency =
  let d = st.dec.(j) in
  if d = 0 then st.squashed_ops <- st.squashed_ops + 1
  else begin
    st.dyn_ops <- st.dyn_ops + 1;
    if observing st then
      emit st
        (Op_issue
           { op = pi.Pcode.op; pred = pi.Pcode.pred; spec = d = 2; latency })
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
  let pred = pi.Pcode.pred in
  let reg r =
    Regfile.read st.rf r ~shadow:(Reg.Set.mem r pi.Pcode.shadow_srcs) ~pred
  in
  let opnd = function Operand.Reg r -> reg r | Operand.Imm i -> i in
  let go ?(alu = Opcode.Add) ?(cmp = Opcode.Eq) ?(aux = 0) ?(dst = -1) k a b =
    execute st ~spec k ~alu ~cmp ~a ~b ~aux ~dst ~latency ~pred
      ~cpred:pi.Pcode.cpred
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
    let nexec = note_bundle st ~in_recovery ~nops:(List.length ops) in
    List.iteri
      (fun j pi ->
        let latency = Machine_model.latency st.model pi.Pcode.op in
        let d = note_slot st j pi ~latency in
        if d > 0 then issue_tree_op st ~spec:(d = 2) pi ~latency)
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
let[@inline] operand st ~pred reg imm shadow =
  if reg >= 0 then Regfile.read st.rf reg ~shadow ~pred else imm

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
    let nexec = note_bundle st ~in_recovery ~nops:(hi - lo) in
    for i = lo to hi - 1 do
      let latency = lr.Lowered.op_lat.(i) in
      let d = note_slot st (i - lo) lr.Lowered.op_src.(i) ~latency in
      if d > 0 then begin
        let pred = lr.Lowered.op_pred.(i) in
        execute st ~spec:(d = 2) lr.Lowered.op_kind.(i)
          ~alu:lr.Lowered.op_alu.(i) ~cmp:lr.Lowered.op_cmp.(i)
          ~a:
            (operand st ~pred lr.Lowered.op_s1_reg.(i) lr.Lowered.op_s1_imm.(i)
               lr.Lowered.op_s1_sh.(i))
          ~b:
            (operand st ~pred lr.Lowered.op_s2_reg.(i) lr.Lowered.op_s2_imm.(i)
               lr.Lowered.op_s2_sh.(i))
          ~aux:lr.Lowered.op_aux.(i) ~dst:lr.Lowered.op_dst.(i) ~latency ~pred
          ~cpred:lr.Lowered.op_cpred.(i)
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
        emit st Recovery_done;
        Some future
    | Recovery _ | Normal -> None
  in
  (match st.mode with
  | Recovery _ -> st.recovery_cycles <- st.recovery_cycles + 1
  | Normal -> ());
  (* 1. Apply writebacks due this cycle. *)
  let due, later = List.partition (fun p -> p.due <= st.now) st.pending in
  st.pending <- later;
  let due = List.sort (fun a b -> compare (a.due, a.order) (b.due, b.order)) due in
  let cond_writes = ref [] in
  let conflict = ref false in
  List.iter
    (fun p ->
      match apply_wb st p.action ~cond_writes with
      | `Ok -> ()
      | `Conflict ->
          conflict := true;
          st.pending <- { p with due = st.now + 1 } :: st.pending)
    due;
  (* 2. CCR update with exception detection. *)
  (match pending_assign with
  | Some future ->
      assert (!cond_writes = []);
      if
        Regfile.committing_exceptions st.rf (Ccr.lookup future) <> []
        || Store_buffer.committing_exceptions st.sb (Ccr.lookup future) <> []
      then machine_error "detection while leaving recovery";
      Ccr.assign st.ccr ~from:future
  | None ->
      let writes = !cond_writes in
      if writes <> [] && detect st writes then begin
        match st.mode with
        | Recovery _ -> machine_error "exception detection during recovery"
        | Normal ->
            (* Suppress the CCR update; the new value goes to the future
               CCR (§3.5). *)
            let future = Ccr.copy st.ccr in
            List.iter (fun (c, v) -> Ccr.set future c v) writes;
            start_recovery st ~future;
            st.kind <- Krecovery;
            raise Cycle_done (* re-execution starts next cycle *)
      end
      else
        List.iter
          (fun (c, v) ->
            Ccr.set st.ccr c v;
            eev st
              (if v then Psb_obs.Events.Pred_true else Psb_obs.Events.Pred_false)
              ~a:(Cond.index c) ~b:0;
            emit st (Cond_set (c, v)))
          writes);
  (* 3. Commit/squash the buffered speculative state, gated by the
     conditions written since the previous tick. *)
  let dirty = Ccr.take_dirty st.ccr in
  List.iter
    (fun (r, a) ->
      emit st (match a with `Commit -> Reg_commit r | `Squash -> Reg_squash r))
    (Regfile.tick ~dirty st.rf st.ccr);
  List.iter
    (fun (a, act) ->
      emit st
        (match act with `Commit -> Store_commit a | `Squash -> Store_squash a))
    (Store_buffer.tick ~dirty st.sb st.ccr);
  (* Sample occupancy after commit/squash but before the drain — this is
     the point where buffered state held across the cycle is visible. *)
  note_sb_occupancy st;
  (* 4. Store buffer drains to the D-cache. *)
  drain_store_buffer st;
  (* 5. Issue one bundle (unless stalled on a shadow-storage conflict),
     through whichever execution kernel this run selected. *)
  match st.exec with
  | Etree -> issue_tree st ~conflict:!conflict
  | Elow ls -> issue_low st ls ~conflict:!conflict

let default_fuel = 60_000_000

let run ?(fuel = default_fuel) ?(regfile_mode = Regfile.Single)
    ?(exec_kernel = Lowered) ?lowered ?on_event ?events ?metrics ~model ~regs
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
      on_event;
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
      pending = [];
      next_order = 0;
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
