open Psb_isa
module Machine_model = Psb_machine.Machine_model
module Branch_predict = Psb_cfg.Branch_predict

type key = string

(* ----- the key: one tagged, length-prefixed binary encoding -----

   Ints (counts, lengths, registers, immediates, offsets, fields) are
   8-byte little-endian; each variant starts with a tag byte; strings
   carry their length. The encoding is therefore injective: two
   encodings are equal only if every input is. *)

let add_int b i = Buffer.add_int64_le b (Int64.of_int i)
let add_bool b v = Buffer.add_char b (if v then 'T' else 'F')

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_label b l = add_string b (Label.name l)

let add_operand b = function
  | Operand.Reg r ->
      Buffer.add_char b 'r';
      add_int b (Reg.index r)
  | Operand.Imm k ->
      Buffer.add_char b 'i';
      add_int b k

let alu_tag = function
  | Opcode.Add -> 'a'
  | Opcode.Sub -> 's'
  | Opcode.Mul -> 'm'
  | Opcode.Div -> 'd'
  | Opcode.And -> '&'
  | Opcode.Or -> '|'
  | Opcode.Xor -> '^'
  | Opcode.Sll -> '<'
  | Opcode.Srl -> '>'
  | Opcode.Sra -> ')'

let cmp_tag = function
  | Opcode.Eq -> '='
  | Opcode.Ne -> '!'
  | Opcode.Lt -> '<'
  | Opcode.Le -> '['
  | Opcode.Gt -> '>'
  | Opcode.Ge -> ']'

let add_op b = function
  | Instr.Alu { op; dst; a; b = o } ->
      Buffer.add_char b 'A';
      Buffer.add_char b (alu_tag op);
      add_int b (Reg.index dst);
      add_operand b a;
      add_operand b o
  | Instr.Mov { dst; src } ->
      Buffer.add_char b 'M';
      add_int b (Reg.index dst);
      add_operand b src
  | Instr.Load { dst; base; off } ->
      Buffer.add_char b 'L';
      add_int b (Reg.index dst);
      add_int b (Reg.index base);
      add_int b off
  | Instr.Store { src; base; off } ->
      Buffer.add_char b 'S';
      add_int b (Reg.index src);
      add_int b (Reg.index base);
      add_int b off
  | Instr.Cmp { op; dst; a; b = o } ->
      Buffer.add_char b 'C';
      Buffer.add_char b (cmp_tag op);
      add_int b (Reg.index dst);
      add_operand b a;
      add_operand b o
  | Instr.Setc { dst; op; a; b = o } ->
      Buffer.add_char b 'P';
      Buffer.add_char b (cmp_tag op);
      add_int b (Cond.index dst);
      add_operand b a;
      add_operand b o
  | Instr.Out o ->
      Buffer.add_char b 'O';
      add_operand b o
  | Instr.Nop -> Buffer.add_char b 'N'

let add_control b = function
  | Instr.Br { src; if_true; if_false } ->
      Buffer.add_char b 'B';
      add_int b (Reg.index src);
      add_label b if_true;
      add_label b if_false
  | Instr.Jmp l ->
      Buffer.add_char b 'J';
      add_label b l
  | Instr.Halt -> Buffer.add_char b 'H'

(* The program's blocks in program order, as [Asm.print] lists them. *)
let add_program b (p : Program.t) =
  add_label b p.Program.entry;
  add_int b (List.length p.Program.blocks);
  List.iter
    (fun (blk : Program.block) ->
      add_label b blk.Program.label;
      add_int b (List.length blk.Program.body);
      List.iter (add_op b) blk.Program.body;
      add_control b blk.Program.term)
    p.Program.blocks

let add_spec b = function
  | Model.No_spec -> Buffer.add_char b 'n'
  | Model.Squash w ->
      Buffer.add_char b 's';
      add_int b w
  | Model.Buffered -> Buffer.add_char b 'b'

(* Exhaustive patterns, so a new model or machine field fails to compile
   here until it joins the key. *)
let add_model b
    {
      Model.name;
      scope;
      safe_spec;
      unsafe_spec;
      store_spec;
      branch_elim;
      cond_limit;
      counter_preds;
      executable;
    } =
  add_string b name;
  Buffer.add_char b (match scope with Model.Trace -> 't' | Model.Region -> 'r');
  add_spec b safe_spec;
  add_spec b unsafe_spec;
  add_spec b store_spec;
  add_bool b branch_elim;
  (match cond_limit with
  | None -> Buffer.add_char b 'u'
  | Some n ->
      Buffer.add_char b 'k';
      add_int b n);
  add_bool b counter_preds;
  add_bool b executable

let add_machine b
    {
      Machine_model.issue_width;
      alu_units;
      branch_units;
      load_units;
      store_units;
      ccr_size;
      load_latency;
      int_latency;
      max_spec_conds;
      transition_penalty;
      sb_capacity;
      dcache_ports;
      rob_size;
      shadow;
    } =
  List.iter (add_int b)
    [
      issue_width; alu_units; branch_units; load_units; store_units; ccr_size;
      load_latency; int_latency; max_spec_conds; transition_penalty;
      sb_capacity; dcache_ports; rob_size;
    ];
  Buffer.add_char b
    (match shadow with
    | Psb_machine.Regfile.Single -> 's'
    | Psb_machine.Regfile.Infinite -> 'i')

(* Bumped whenever the [Driver.compiled] representation changes shape
   (v2: pcode slots carry compiled predicate masks; v3: compiles carry
   the lowered structure-of-arrays region form; v4: compiles carry the
   predecoded scalar form for the interpreter and ROB kernels; v5: they
   no longer do, it moved to [Driver.analysis]; v6: the lowered form
   lost its per-slot source predicates; v7: and its per-slot source
   instructions and source exit targets; v8: a unit's steps are a flat
   int array; v9: a predicate is its ternary mask alone, and pcode slots
   and the lowered form hold it in place of a compiled twin; v10: the
   machine carries the shadow register file, which was a compile flag),
   so a process mixing library versions through a shared cache can never
   alias keys. *)
let format_version = 10

let key ~model ~machine ~avoid_commit_deps ~verify ~profile program =
  let b = Buffer.create 4096 in
  add_int b format_version;
  add_program b program;
  add_model b model;
  add_machine b machine;
  add_bool b avoid_commit_deps;
  add_bool b verify;
  Branch_predict.fingerprint b profile;
  Digest.to_hex (Digest.string (Buffer.contents b))

type 'a t = {
  lock : Mutex.t;
  tbl : (key, 'a) Hashtbl.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 64;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let find_or_compile t key build =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.tbl key with
  | Some v ->
      Atomic.incr t.hits;
      Mutex.unlock t.lock;
      v
  | None ->
      Mutex.unlock t.lock;
      Atomic.incr t.misses;
      let v = build () in
      Mutex.lock t.lock;
      (* A racing domain may have inserted first: keep the incumbent so
         every later hit shares one value. *)
      let v =
        match Hashtbl.find_opt t.tbl key with
        | Some v' -> v'
        | None ->
            Hashtbl.replace t.tbl key v;
            v
      in
      Mutex.unlock t.lock;
      v

type stats = { hits : int; misses : int; entries : int }

let stats t =
  Mutex.lock t.lock;
  let entries = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  { hits = Atomic.get t.hits; misses = Atomic.get t.misses; entries }

let observe_metrics t m =
  let s = stats t in
  let set name v =
    let c = Psb_obs.Metrics.counter m name in
    Psb_obs.Metrics.inc c ~by:(v - Psb_obs.Metrics.counter_value c)
  in
  set "compile_cache_hits" s.hits;
  set "compile_cache_misses" s.misses;
  set "compile_cache_entries" s.entries
