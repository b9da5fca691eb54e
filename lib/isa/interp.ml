type outcome = Halted | Fatal of Fault.t | Out_of_fuel

type result = {
  outcome : outcome;
  output : int list;
  cycles : int;
  dyn_instrs : int;
  block_trace : int array;
  regs : int Reg.Map.t;
  faults_handled : int;
}

type env = {
  regs : int array;
  conds : bool array;
  written : bool array; (* registers ever written, for the final map *)
  mem : Memory.t;
  mutable output_rev : int list;
  mutable cycles : int;
  mutable dyn_instrs : int;
  mutable trace : int array; (* blocks entered; the first [trace_len] count *)
  mutable trace_len : int;
  mutable faults_handled : int;
}

(* Append a block index to the trace, doubling the buffer when full. *)
let record env bi =
  let n = env.trace_len in
  if n = Array.length env.trace then begin
    let a = Array.make (max 256 (2 * n)) 0 in
    Array.blit env.trace 0 a 0 n;
    env.trace <- a
  end;
  env.trace.(n) <- bi;
  env.trace_len <- n + 1

exception Stop of Fault.t

let default_fuel = 30_000_000

let run ?(fuel = default_fuel) ?(record_trace = true) ?decoded ?on_block ~regs
    ~mem program =
  let d =
    match decoded with
    | Some d ->
        Decoded.check_source d program;
        d
    | None -> Decoded.of_program program
  in
  let nregs =
    List.fold_left (fun m (r, _) -> max m (Reg.index r + 1)) d.Decoded.nregs regs
  in
  let env =
    {
      regs = Array.make nregs 0;
      conds = Array.make d.Decoded.nconds false;
      written = Array.make nregs false;
      mem;
      output_rev = [];
      cycles = 0;
      dyn_instrs = 0;
      trace = [||];
      trace_len = 0;
      faults_handled = 0;
    }
  in
  List.iter
    (fun (r, v) ->
      env.regs.(Reg.index r) <- v;
      env.written.(Reg.index r) <- true)
    regs;
  let finish outcome =
    let final_regs =
      Array.to_seqi env.regs
      |> Seq.filter (fun (i, _) -> env.written.(i))
      |> Seq.fold_left (fun m (i, v) -> Reg.Map.add (Reg.make i) v m) Reg.Map.empty
    in
    {
      outcome;
      output = List.rev env.output_rev;
      cycles = env.cycles;
      dyn_instrs = env.dyn_instrs;
      block_trace =
        (if env.trace_len = Array.length env.trace then env.trace
         else Array.sub env.trace 0 env.trace_len);
      regs = final_regs;
      faults_handled = env.faults_handled;
    }
  in
  let regs = env.regs and conds = env.conds and written = env.written in
  let kind = d.Decoded.kind
  and dst = d.Decoded.dst
  and aux = d.Decoded.aux
  and alu = d.Decoded.alu
  and cmp = d.Decoded.cmp
  and s1_reg = d.Decoded.s1_reg
  and s1_imm = d.Decoded.s1_imm
  and s2_reg = d.Decoded.s2_reg
  and s2_imm = d.Decoded.s2_imm
  and op_bounds = d.Decoded.op_bounds
  and labels = d.Decoded.labels in
  (* last-load destination register index; -1 = none *)
  let lld = ref (-1) in
  let s1 i = (let r = s1_reg.(i) in if r >= 0 then regs.(r) else s1_imm.(i))
  and s2 i = (let r = s2_reg.(i) in if r >= 0 then regs.(r) else s2_imm.(i)) in
  (* a recoverable fault is handled (the "OS" maps the demand page) and
     the access retried *)
  let handle f =
    if Memory.is_fatal f then raise (Stop (Fault.Mem f));
    assert (Memory.handle_fault env.mem f);
    env.faults_handled <- env.faults_handled + 1
  in
  let rec mem_read addr =
    match Memory.read env.mem addr with
    | v -> v
    | exception Memory.Fault f ->
        handle f;
        mem_read addr
  in
  let rec mem_write addr v =
    match Memory.write env.mem addr v with
    | () -> ()
    | exception Memory.Fault f ->
        handle f;
        mem_write addr v
  in
  let step i =
    let k = kind.(i) in
    (* charge: 1 cycle, +1 when this op uses the last load's dst *)
    env.dyn_instrs <- env.dyn_instrs + 1;
    env.cycles <- env.cycles + 1;
    let l = !lld in
    if l >= 0 && (s1_reg.(i) = l || s2_reg.(i) = l) then
      env.cycles <- env.cycles + 1;
    lld := (if k = 2 (* kload *) then dst.(i) else -1);
    match k with
    | 0 (* kalu *) ->
        let v =
          try Opcode.eval_alu alu.(i) (s1 i) (s2 i)
          with Opcode.Arithmetic_fault m -> raise (Stop (Fault.Arith m))
        in
        regs.(dst.(i)) <- v;
        written.(dst.(i)) <- true
    | 1 (* kmov *) ->
        regs.(dst.(i)) <- s1 i;
        written.(dst.(i)) <- true
    | 2 (* kload *) ->
        regs.(dst.(i)) <- mem_read (regs.(s1_reg.(i)) + aux.(i));
        written.(dst.(i)) <- true
    | 3 (* kstore *) -> mem_write (regs.(s1_reg.(i)) + aux.(i)) regs.(s2_reg.(i))
    | 4 (* kcmp *) ->
        regs.(dst.(i)) <- (if Opcode.eval_cmp cmp.(i) (s1 i) (s2 i) then 1 else 0);
        written.(dst.(i)) <- true
    | 5 (* ksetc *) -> conds.(dst.(i)) <- Opcode.eval_cmp cmp.(i) (s1 i) (s2 i)
    | 6 (* kout *) -> env.output_rev <- s1 i :: env.output_rev
    | _ (* knop *) -> ()
  in
  (* fuel is sampled at block entry, so a block entered in budget runs to
     its terminator; the terminator takes a cycle and ends any load-use
     interlock *)
  let rec run_block bi =
    if env.dyn_instrs > fuel then finish Out_of_fuel
    else begin
      if record_trace then record env bi;
      (match on_block with None -> () | Some f -> f env.cycles labels.(bi));
      for i = op_bounds.(bi) to op_bounds.(bi + 1) - 1 do
        step i
      done;
      env.dyn_instrs <- env.dyn_instrs + 1;
      env.cycles <- env.cycles + 1;
      lld := -1;
      let tk = d.Decoded.term_kind.(bi) in
      if tk = 0 (* thalt *) then finish Halted
      else if tk = 1 (* tjmp *) then run_block d.Decoded.term_t.(bi)
      else
        run_block
          (if regs.(d.Decoded.term_src.(bi)) <> 0 then d.Decoded.term_t.(bi)
           else d.Decoded.term_f.(bi))
    end
  in
  try run_block d.Decoded.entry with Stop f -> finish (Fatal f)

let equivalent a b =
  a.outcome = b.outcome && a.output = b.output && Reg.Map.equal Int.equal a.regs b.regs

let pp_outcome ppf = function
  | Halted -> Format.pp_print_string ppf "halted"
  | Fatal f -> Format.fprintf ppf "fatal: %a" Fault.pp f
  | Out_of_fuel -> Format.pp_print_string ppf "out of fuel"
