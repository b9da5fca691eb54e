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

(* Each address's last store completion, by open addressing over two
   int arrays: linear probing from the address itself, a power-of-two
   capacity, doubled past half load. Any int is a key, so a fatal
   out-of-range address is recorded like a mapped one. A lookup
   allocates nothing, an update only when the table grows, so the
   table's size follows the addresses stored, not the dynamic ops.
   Completions are at least 1, so [-1] marks an empty slot. *)
type stores = {
  mutable keys : int array;
  mutable dones : int array;
  mutable used : int;
}

let stores_create () =
  { keys = Array.make 16 0; dones = Array.make 16 (-1); used = 0 }

(* [a]'s slot, or the empty slot where it goes *)
let rec slot t a i =
  if t.dones.(i) < 0 || t.keys.(i) = a then i
  else slot t a ((i + 1) land (Array.length t.keys - 1))

let last_store t a =
  let i = slot t a (a land (Array.length t.keys - 1)) in
  if t.dones.(i) < 0 then 0 else t.dones.(i)

let rec set_store t a v =
  let i = slot t a (a land (Array.length t.keys - 1)) in
  if t.dones.(i) >= 0 then t.dones.(i) <- v
  else if 2 * (t.used + 1) <= Array.length t.keys then begin
    t.keys.(i) <- a;
    t.dones.(i) <- v;
    t.used <- t.used + 1
  end
  else begin
    let keys = t.keys and dones = t.dones in
    t.keys <- Array.make (2 * Array.length keys) 0;
    t.dones <- Array.make (2 * Array.length keys) (-1);
    t.used <- 0;
    Array.iteri (fun j d -> if d >= 0 then set_store t keys.(j) d) dones;
    set_store t a v
  end

(* The replay's memory is fault-tolerant: a demand page is mapped and
   the access retried, a fatal access reads 0 and drops the write. *)
let mem_read mem a =
  match Memory.read mem a with
  | v -> v
  | exception Memory.Fault f ->
      if Memory.is_fatal f then 0
      else begin
        ignore (Memory.handle_fault mem f);
        try Memory.read mem a with Memory.Fault _ -> 0
      end

let mem_write mem a v =
  match Memory.write mem a v with
  | () -> ()
  | exception Memory.Fault f ->
      if not (Memory.is_fatal f) then begin
        ignore (Memory.handle_fault mem f);
        try Memory.write mem a v with Memory.Fault _ -> ()
      end

(* When an op's register operands are ready in one regime *)
let[@inline] operands_ready ready r1 r2 =
  Int.max
    (if r1 >= 0 then ready.(r1) else 0)
    (if r2 >= 0 then ready.(r2) else 0)

(* Replay the traced run's dynamic ops through three dataflow schedules
   at once. An op issues when its operands are ready (and, in the
   block-limited regime, after the control barrier); its destination is
   ready, and a store's address written, when it completes.

   The value regime adds a perfect value-prediction oracle for loads
   and ALU results (after Mitrevski–Gušev): consumers of a predicted
   result never wait for it (its destination is ready at 0), and a
   predicted load skips the store-to-load dependence, so that regime
   keeps no store table. The producer still occupies the schedule
   (prediction must be verified), so the makespan counts its
   completion. Every constraint of the value regime is one of the
   unconstrained oracle's, which guarantees [value_ipc >= oracle_ipc].

   Alongside, a tiny fault-tolerant evaluator keeps register values and
   memory, because the disambiguation oracle needs each access's
   address. *)
let analyze (w : Dsl.t) ~scalar =
  let d = Decoded.of_program w.Dsl.program in
  let open Decoded in
  let nregs = d.nregs in
  let regs = Array.make nregs 0 in
  List.iter
    (fun (r, v) -> if Reg.index r < nregs then regs.(Reg.index r) <- v)
    w.Dsl.regs;
  let mem = w.Dsl.make_mem () in
  let lat = Array.map latency d.ops in
  let block_ready = Array.make nregs 0
  and oracle_ready = Array.make nregs 0
  and value_ready = Array.make nregs 0 in
  let block_stores = stores_create () and oracle_stores = stores_create () in
  let count = ref 0 and barrier = ref 0 in
  (* each regime's makespan; the block-limited one is also where the
     next block's barrier falls *)
  let block_end = ref 0 and oracle_end = ref 0 and value_end = ref 0 in
  let trace = scalar.Interp.block_trace in
  for t = 0 to Array.length trace - 1 do
    let bi = trace.(t) in
    for i = d.op_bounds.(bi) to d.op_bounds.(bi + 1) - 1 do
      incr count;
      let k = d.kind.(i) and dst = d.dst.(i) in
      let r1 = d.s1_reg.(i) and r2 = d.s2_reg.(i) in
      let defines = dst >= 0 && k <> ksetc in
      let addr = if k = kload || k = kstore then regs.(r1) + d.aux.(i) else 0 in
      (* block-limited *)
      let t0 = operands_ready block_ready r1 r2 in
      let t0 =
        if k = kload then Int.max t0 (last_store block_stores addr) else t0
      in
      let done_at = Int.max t0 !barrier + lat.(i) in
      if defines then block_ready.(dst) <- done_at;
      if k = kstore then set_store block_stores addr done_at;
      if done_at > !block_end then block_end := done_at;
      (* unconstrained *)
      let t0 = operands_ready oracle_ready r1 r2 in
      let t0 =
        if k = kload then Int.max t0 (last_store oracle_stores addr) else t0
      in
      let done_at = t0 + lat.(i) in
      if defines then oracle_ready.(dst) <- done_at;
      if k = kstore then set_store oracle_stores addr done_at;
      if done_at > !oracle_end then oracle_end := done_at;
      (* value oracle *)
      let done_at = operands_ready value_ready r1 r2 + lat.(i) in
      if defines then
        value_ready.(dst) <- (if k = kload || k = kalu then 0 else done_at);
      if done_at > !value_end then value_end := done_at;
      (* values *)
      let a = if r1 >= 0 then regs.(r1) else d.s1_imm.(i) in
      let b = if r2 >= 0 then regs.(r2) else d.s2_imm.(i) in
      if k = kalu then
        regs.(dst) <-
          (match Opcode.eval_alu d.alu.(i) a b with
          | v -> v
          | exception Opcode.Arithmetic_fault _ -> 0)
      else if k = kmov then regs.(dst) <- a
      else if k = kcmp then
        regs.(dst) <- (if Opcode.eval_cmp d.cmp.(i) a b then 1 else 0)
      else if k = kload then regs.(dst) <- mem_read mem addr
      else if k = kstore then mem_write mem addr b
    done;
    (* the block's branch resolves here: downstream instructions of the
       block-limited regime cannot start earlier *)
    barrier := !block_end
  done;
  let count = !count in
  let ipc span =
    if span = 0 then 0.0 else float_of_int count /. float_of_int span
  in
  let block_ipc = ipc !block_end
  and oracle_ipc = ipc !oracle_end
  and value_ipc = ipc !value_end in
  {
    name = w.Dsl.name;
    dyn_instrs = count;
    block_ipc;
    oracle_ipc;
    value_ipc;
    headroom = oracle_ipc /. max block_ipc 1e-9;
    value_headroom = value_ipc /. max oracle_ipc 1e-9;
  }

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
