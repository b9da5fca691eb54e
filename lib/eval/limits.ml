open Psb_isa
open Psb_workloads

type row = {
  name : string;
  dyn_instrs : int;
  block_ipc : float;
  oracle_ipc : float;
  value_ipc : float;
  headroom : float;
  value_headroom : float;
}

(* The oracle machine's latencies are the base machine's. *)
let latency = Psb_machine.Machine_model.(latency base)

(* One dataflow-schedule accumulator. *)
type sched_state = {
  mutable reg_ready : int array;
  addr_ready : (int, int) Hashtbl.t; (* per-address last store completion *)
  mutable barrier : int; (* control barrier (block-limited regime only) *)
  mutable makespan : int;
  mutable count : int;
}

let fresh_state () =
  {
    reg_ready = Array.make 64 0;
    addr_ready = Hashtbl.create 64;
    barrier = 0;
    makespan = 0;
    count = 0;
  }

let slot st r =
  let i = Reg.index r in
  if i >= Array.length st.reg_ready then begin
    let a = Array.make (max (i + 1) (2 * Array.length st.reg_ready)) 0 in
    Array.blit st.reg_ready 0 a 0 (Array.length st.reg_ready);
    st.reg_ready <- a
  end;
  i

(* Earliest issue = operands ready (+ control barrier when enabled, with
   perfect renaming and memory disambiguation otherwise). Returns the
   completion cycle.

   [value_predict] adds the third regime: a perfect value-prediction
   oracle for loads and ALU results (after Mitrevski–Gušev). Consumers
   of a predicted result never wait for it — the dataflow edge out of
   the producer is broken (its defs become ready immediately) and a
   predicted load also skips the store-to-load memory dependence. The
   producer itself still occupies the schedule (prediction must be
   verified), so [makespan] keeps counting its completion. Every
   constraint in this regime is a subset of the unconstrained oracle's,
   which guarantees [value_ipc >= oracle_ipc] pointwise. *)
let issue ~control_barriers ?(value_predict = false) st op addr =
  st.count <- st.count + 1;
  let predicted =
    value_predict
    && match op with Instr.Load _ | Instr.Alu _ -> true | _ -> false
  in
  let t0 =
    List.fold_left (fun acc r -> max acc st.reg_ready.(slot st r)) 0
      (Instr.uses op)
  in
  let t0 =
    match (op, addr) with
    | Instr.Load _, Some a when not predicted ->
        max t0 (Option.value (Hashtbl.find_opt st.addr_ready a) ~default:0)
    | _ -> t0
  in
  let t0 = if control_barriers then max t0 st.barrier else t0 in
  let done_at = t0 + latency op in
  let def_ready = if predicted then 0 else done_at in
  List.iter (fun r -> st.reg_ready.(slot st r) <- def_ready) (Instr.defs op);
  (match (op, addr) with
  | Instr.Store _, Some a -> Hashtbl.replace st.addr_ready a done_at
  | _ -> ());
  st.makespan <- max st.makespan done_at;
  done_at

(* Replay the dynamic block trace with a tiny fault-tolerant evaluator
   (addresses are needed for the disambiguation oracle). *)
let analyze (w : Dsl.t) =
  (* decode once: the traced reference run and the trace replay below
     both walk the flat form instead of re-finding blocks per label *)
  let decoded = Decoded.of_program w.Dsl.program in
  let res =
    Interp.run ~decoded ~regs:w.Dsl.regs ~mem:(w.Dsl.make_mem ()) w.Dsl.program
  in
  let block_limited = fresh_state ()
  and oracle = fresh_state ()
  and value = fresh_state () in
  let block_end = ref 0 in
  let mem = w.Dsl.make_mem () in
  let regs = Array.make 64 0 in
  List.iter
    (fun (r, v) -> if Reg.index r < Array.length regs then regs.(Reg.index r) <- v)
    w.Dsl.regs;
  let rr r = if Reg.index r < Array.length regs then regs.(Reg.index r) else 0 in
  let operand = function Operand.Reg r -> rr r | Operand.Imm i -> i in
  let wr r v = if Reg.index r < Array.length regs then regs.(Reg.index r) <- v in
  let mem_read a =
    match Memory.read mem a with
    | v -> v
    | exception Memory.Fault f ->
        if Memory.is_fatal f then 0
        else begin
          ignore (Memory.handle_fault mem f);
          try Memory.read mem a with Memory.Fault _ -> 0
        end
  in
  let mem_write a v =
    match Memory.write mem a v with
    | () -> ()
    | exception Memory.Fault f ->
        if not (Memory.is_fatal f) then begin
          ignore (Memory.handle_fault mem f);
          try Memory.write mem a v with Memory.Fault _ -> ()
        end
  in
  let step op =
    let addr =
      match op with
      | Instr.Load { base; off; _ } | Instr.Store { base; off; _ } ->
          Some (rr base + off)
      | _ -> None
    in
    block_end := max !block_end (issue ~control_barriers:true block_limited op addr);
    ignore (issue ~control_barriers:false oracle op addr);
    ignore (issue ~control_barriers:false ~value_predict:true value op addr);
    match op with
    | Instr.Alu { op = aop; dst; a; b } -> (
        match Opcode.eval_alu aop (operand a) (operand b) with
        | v -> wr dst v
        | exception Opcode.Arithmetic_fault _ -> wr dst 0)
    | Instr.Mov { dst; src } -> wr dst (operand src)
    | Instr.Cmp { op = cop; dst; a; b } ->
        wr dst (if Opcode.eval_cmp cop (operand a) (operand b) then 1 else 0)
    | Instr.Load { dst; _ } -> wr dst (mem_read (Option.get addr))
    | Instr.Store { src; _ } -> mem_write (Option.get addr) (rr src)
    | Instr.Setc _ | Instr.Out _ | Instr.Nop -> ()
  in
  Array.iter
    (fun bi ->
      let hi = decoded.Decoded.op_bounds.(bi + 1) in
      for i = decoded.Decoded.op_bounds.(bi) to hi - 1 do
        step decoded.Decoded.ops.(i)
      done;
      (* the block's branch resolves here: downstream instructions of the
         block-limited regime cannot start earlier *)
      block_limited.barrier <- !block_end)
    res.Interp.block_trace;
  let ipc st =
    if st.makespan = 0 then 0.0
    else float_of_int st.count /. float_of_int st.makespan
  in
  {
    name = w.Dsl.name;
    dyn_instrs = block_limited.count;
    block_ipc = ipc block_limited;
    oracle_ipc = ipc oracle;
    value_ipc = ipc value;
    headroom = ipc oracle /. max (ipc block_limited) 1e-9;
    value_headroom = ipc value /. max (ipc oracle) 1e-9;
  }

let analyze_suite ?pool ?(workloads = Suite.all) () =
  match pool with
  | Some p -> Psb_parallel.Pool.map_exn p analyze workloads
  | None -> List.map analyze workloads

let pp ppf rows =
  Format.fprintf ppf
    "@[<v>ILP limit study (oracle dataflow schedule of the dynamic trace)@,";
  Format.fprintf ppf "%-10s %10s %12s %12s %12s %10s %10s@," "Program"
    "dyn ops" "block IPC" "oracle IPC" "value IPC" "headroom" "value+";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %10d %12.2f %12.2f %12.2f %9.1fx %9.1fx@,"
        r.name r.dyn_instrs r.block_ipc r.oracle_ipc r.value_ipc r.headroom
        r.value_headroom)
    rows;
  Format.fprintf ppf "@]"
