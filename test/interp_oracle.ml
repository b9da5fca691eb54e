(* The reference [Interp.run] is compared against: the tree walk it
   replaced. It reads the program as written, block lists and
   instruction variants, and finds each branch target by its label
   (the first block of that name, as [Program.find]). The cycle model is
   the interpreter's: one cycle per instruction, terminators included;
   one more when an instruction reads the register the instruction just
   before it loaded, which a terminator never carries into the next
   block; fuel sampled at block entry; recoverable faults handled and
   the access retried. *)

open Psb_isa

exception Stop of Fault.t

type env = {
  regs : int array;
  conds : bool array;
  written : bool array; (* registers ever written, for the final map *)
  mem : Memory.t;
  mutable output_rev : int list;
  mutable cycles : int;
  mutable dyn_instrs : int;
  mutable trace_rev : int list;
  mutable faults_handled : int;
  mutable last_load_dst : Reg.t option;
}

let reg_value env r = env.regs.(Reg.index r)

let set_reg env r v =
  env.regs.(Reg.index r) <- v;
  env.written.(Reg.index r) <- true

let operand_value env = function
  | Operand.Reg r -> reg_value env r
  | Operand.Imm i -> i

let rec exec_op env op =
  try
    match op with
    | Instr.Alu { op; dst; a; b } ->
        let v =
          try Opcode.eval_alu op (operand_value env a) (operand_value env b)
          with Opcode.Arithmetic_fault m -> raise (Stop (Fault.Arith m))
        in
        set_reg env dst v
    | Instr.Mov { dst; src } -> set_reg env dst (operand_value env src)
    | Instr.Cmp { op; dst; a; b } ->
        let v = Opcode.eval_cmp op (operand_value env a) (operand_value env b) in
        set_reg env dst (if v then 1 else 0)
    | Instr.Load { dst; base; off } ->
        set_reg env dst (Memory.read env.mem (reg_value env base + off))
    | Instr.Store { src; base; off } ->
        Memory.write env.mem (reg_value env base + off) (reg_value env src)
    | Instr.Setc { dst; op; a; b } ->
        env.conds.(Cond.index dst) <-
          Opcode.eval_cmp op (operand_value env a) (operand_value env b)
    | Instr.Out o -> env.output_rev <- operand_value env o :: env.output_rev
    | Instr.Nop -> ()
  with Memory.Fault f ->
    if Memory.is_fatal f then raise (Stop (Fault.Mem f))
    else begin
      assert (Memory.handle_fault env.mem f);
      env.faults_handled <- env.faults_handled + 1;
      exec_op env op
    end

let charge env op =
  env.dyn_instrs <- env.dyn_instrs + 1;
  env.cycles <- env.cycles + 1;
  (match env.last_load_dst with
  | Some r when List.exists (Reg.equal r) (Instr.uses op) ->
      env.cycles <- env.cycles + 1
  | Some _ | None -> ());
  env.last_load_dst <- (match op with Instr.Load { dst; _ } -> Some dst | _ -> None)

let run ?(fuel = 30_000_000) ~regs ~mem program : Interp.result =
  let nregs = max 1 (Program.max_reg program + 1) in
  let nregs =
    List.fold_left (fun m (r, _) -> max m (Reg.index r + 1)) nregs regs
  in
  let env =
    {
      regs = Array.make nregs 0;
      conds = Array.make (max 1 (Program.max_cond program + 1)) false;
      written = Array.make nregs false;
      mem;
      output_rev = [];
      cycles = 0;
      dyn_instrs = 0;
      trace_rev = [];
      faults_handled = 0;
      last_load_dst = None;
    }
  in
  List.iter (fun (r, v) -> set_reg env r v) regs;
  let finish outcome =
    let final_regs = ref Reg.Map.empty in
    Array.iteri
      (fun i v ->
        if env.written.(i) then final_regs := Reg.Map.add (Reg.make i) v !final_regs)
      env.regs;
    {
      Interp.outcome;
      output = List.rev env.output_rev;
      cycles = env.cycles;
      dyn_instrs = env.dyn_instrs;
      block_trace = Array.of_list (List.rev env.trace_rev);
      regs = !final_regs;
      faults_handled = env.faults_handled;
    }
  in
  let blocks = List.mapi (fun i b -> (i, b)) program.Program.blocks in
  let find label =
    List.find
      (fun (_, (b : Program.block)) -> Label.equal b.Program.label label)
      blocks
  in
  let rec run_block label =
    if env.dyn_instrs > fuel then finish Interp.Out_of_fuel
    else begin
      let bi, b = find label in
      env.trace_rev <- bi :: env.trace_rev;
      List.iter
        (fun op ->
          charge env op;
          exec_op env op)
        b.Program.body;
      env.dyn_instrs <- env.dyn_instrs + 1;
      env.cycles <- env.cycles + 1;
      env.last_load_dst <- None;
      match b.Program.term with
      | Instr.Halt -> finish Interp.Halted
      | Instr.Jmp l -> run_block l
      | Instr.Br { src; if_true; if_false } ->
          run_block (if reg_value env src <> 0 then if_true else if_false)
    end
  in
  try run_block program.Program.entry with Stop f -> finish (Interp.Fatal f)
