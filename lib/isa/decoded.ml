(* Opcode class tags, in the order of [kind_names], so class counters
   index by tag directly. *)
let kalu = 0
let kmov = 1
let kload = 2
let kstore = 3
let kcmp = 4
let ksetc = 5
let kout = 6
let knop = 7
let kbranch = 8
let num_kinds = 9
let kind_names =
  [| "alu"; "mov"; "load"; "store"; "cmp"; "setc"; "out"; "nop"; "branch" |]

(* Terminator tags. *)
let thalt = 0
let tjmp = 1
let tbr = 2

type t = {
  source : Program.t;
  entry : int;
  nblocks : int;
  index : (string, int) Hashtbl.t;
  labels : Label.t array;
  op_bounds : int array;
  kind : int array;
  dst : int array;
  aux : int array;
  alu : Opcode.alu array;
  cmp : Opcode.cmp array;
  s1_reg : int array;
  s1_imm : int array;
  s2_reg : int array;
  s2_imm : int array;
  is_load : bool array;
  is_store : bool array;
  may_fault : bool array;
  ops : Instr.op array;
  term_kind : int array;
  term_src : int array;
  term_t : int array;
  term_f : int array;
  nregs : int;
  nconds : int;
}

let num_ops d = Array.length d.kind
let block_ops d bi = d.op_bounds.(bi + 1) - d.op_bounds.(bi)

let of_program (p : Program.t) =
  let blocks = Array.of_list p.Program.blocks in
  let nblocks = Array.length blocks in
  let index : (string, int) Hashtbl.t = Hashtbl.create (2 * nblocks) in
  Array.iteri
    (fun i (b : Program.block) -> Hashtbl.add index (Label.name b.Program.label) i)
    blocks;
  (* [Program.make] has checked that every target names a block *)
  let resolve l = Hashtbl.find index (Label.name l) in
  let op_bounds = Array.make (nblocks + 1) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i (b : Program.block) ->
      op_bounds.(i) <- !total;
      total := !total + List.length b.Program.body)
    blocks;
  op_bounds.(nblocks) <- !total;
  let n = !total in
  let kind = Array.make n knop in
  let dst = Array.make n (-1) in
  let aux = Array.make n 0 in
  let alu = Array.make n Opcode.Add in
  let cmp = Array.make n Opcode.Eq in
  let s1_reg = Array.make n (-1) in
  let s1_imm = Array.make n 0 in
  let s2_reg = Array.make n (-1) in
  let s2_imm = Array.make n 0 in
  let is_load = Array.make n false in
  let is_store = Array.make n false in
  let may_fault = Array.make n false in
  let ops = Array.make n Instr.Nop in
  let labels = Array.map (fun (b : Program.block) -> b.Program.label) blocks in
  let term_kind = Array.make (max 1 nblocks) thalt in
  let term_src = Array.make (max 1 nblocks) (-1) in
  let term_t = Array.make (max 1 nblocks) (-1) in
  let term_f = Array.make (max 1 nblocks) (-1) in
  let set1 i (o : Operand.t) =
    match o with
    | Operand.Reg r -> s1_reg.(i) <- Reg.index r
    | Operand.Imm v -> s1_imm.(i) <- v
  in
  let set2 i (o : Operand.t) =
    match o with
    | Operand.Reg r -> s2_reg.(i) <- Reg.index r
    | Operand.Imm v -> s2_imm.(i) <- v
  in
  let decode_op i (op : Instr.op) =
    ops.(i) <- op;
    match op with
    | Instr.Alu { op = o; dst = d; a; b } ->
        kind.(i) <- kalu;
        dst.(i) <- Reg.index d;
        alu.(i) <- o;
        may_fault.(i) <- Opcode.alu_unsafe o;
        set1 i a;
        set2 i b
    | Instr.Mov { dst = d; src } ->
        kind.(i) <- kmov;
        dst.(i) <- Reg.index d;
        set1 i src
    | Instr.Load { dst = d; base; off } ->
        kind.(i) <- kload;
        dst.(i) <- Reg.index d;
        aux.(i) <- off;
        is_load.(i) <- true;
        may_fault.(i) <- true;
        s1_reg.(i) <- Reg.index base
    | Instr.Store { src; base; off } ->
        kind.(i) <- kstore;
        aux.(i) <- off;
        is_store.(i) <- true;
        may_fault.(i) <- true;
        s1_reg.(i) <- Reg.index base;
        s2_reg.(i) <- Reg.index src
    | Instr.Cmp { op = o; dst = d; a; b } ->
        kind.(i) <- kcmp;
        dst.(i) <- Reg.index d;
        cmp.(i) <- o;
        set1 i a;
        set2 i b
    | Instr.Setc { dst = d; op = o; a; b } ->
        kind.(i) <- ksetc;
        dst.(i) <- Cond.index d;
        cmp.(i) <- o;
        set1 i a;
        set2 i b
    | Instr.Out o ->
        kind.(i) <- kout;
        set1 i o
    | Instr.Nop -> kind.(i) <- knop
  in
  Array.iteri
    (fun bi (b : Program.block) ->
      List.iteri (fun j op -> decode_op (op_bounds.(bi) + j) op) b.Program.body;
      match b.Program.term with
      | Instr.Halt -> term_kind.(bi) <- thalt
      | Instr.Jmp l ->
          term_kind.(bi) <- tjmp;
          term_t.(bi) <- resolve l
      | Instr.Br { src; if_true; if_false } ->
          term_kind.(bi) <- tbr;
          term_src.(bi) <- Reg.index src;
          term_t.(bi) <- resolve if_true;
          term_f.(bi) <- resolve if_false)
    blocks;
  {
    source = p;
    entry = resolve p.Program.entry;
    nblocks;
    index;
    labels;
    op_bounds;
    kind;
    dst;
    aux;
    alu;
    cmp;
    s1_reg;
    s1_imm;
    s2_reg;
    s2_imm;
    is_load;
    is_store;
    may_fault;
    ops;
    term_kind;
    term_src;
    term_t;
    term_f;
    nregs = max 1 (Program.max_reg p + 1);
    nconds = max 1 (Program.max_cond p + 1);
  }

let block_index d l =
  match Hashtbl.find_opt d.index (Label.name l) with Some i -> i | None -> -1

(* [run] validates with physical equality, like [Vliw_sim] does for the
   lowered VLIW form: a decoded form is a view of one exact program
   value, not of any structurally equal one. *)
let check_source d program =
  if d.source != program then
    invalid_arg "Decoded.check_source: decoded form built from a different program"

exception Mismatch of string

let check d =
  let fail fmt = Format.kasprintf (fun m -> raise (Mismatch m)) fmt in
  let blocks = Array.of_list d.source.Program.blocks in
  let nb = Array.length blocks in
  let n = Array.length in
  let total = n d.kind in
  (* flat row [i] against its source op; [at ()] names the op, formatted
     only when a check fails *)
  let check_op ~at i (src : Instr.op) =
    let reg what k =
      if k < 0 then fail "%s: %s is not a register" (at ()) what else Reg.make k
    in
    let opnd k imm = if k < 0 then Operand.Imm imm else Operand.Reg (Reg.make k) in
    let s1 = opnd d.s1_reg.(i) d.s1_imm.(i)
    and s2 = opnd d.s2_reg.(i) d.s2_imm.(i)
    and dst () = reg "dst" d.dst.(i)
    and base () = reg "base" d.s1_reg.(i)
    and off = d.aux.(i)
    and alu = d.alu.(i)
    and cmp = d.cmp.(i)
    and k = d.kind.(i) in
    (* the op, and how many of the two source operands it has *)
    let op, arity =
      if k = kalu then (Instr.Alu { op = alu; dst = dst (); a = s1; b = s2 }, 2)
      else if k = kmov then (Instr.Mov { dst = dst (); src = s1 }, 1)
      else if k = kload then (Instr.Load { dst = dst (); base = base (); off }, 1)
      else if k = kstore then
        (Instr.Store { src = reg "data" d.s2_reg.(i); base = base (); off }, 2)
      else if k = kcmp then (Instr.Cmp { op = cmp; dst = dst (); a = s1; b = s2 }, 2)
      else if k = ksetc then begin
        if d.dst.(i) < 0 then fail "%s: condition %d" (at ()) d.dst.(i);
        (Instr.Setc { dst = Cond.make d.dst.(i); op = cmp; a = s1; b = s2 }, 2)
      end
      else if k = kout then (Instr.Out s1, 1)
      else if k = knop then (Instr.Nop, 0)
      else fail "%s: kind %d" (at ()) k
    in
    if not (Instr.equal_op op src) then
      fail "%s: decoded %a, source %a" (at ()) Instr.pp_op op Instr.pp_op src;
    if not (Instr.equal_op d.ops.(i) src) then
      fail "%s: ops holds %a" (at ()) Instr.pp_op d.ops.(i);
    (* the load-use interlock reads both operand registers of every op *)
    if d.s1_reg.(i) >= 0 && arity < 1 then fail "%s: operand 1 is not the op's" (at ());
    if d.s2_reg.(i) >= 0 && arity < 2 then fail "%s: operand 2 is not the op's" (at ());
    if
      d.is_load.(i) <> Instr.is_load src
      || d.is_store.(i) <> Instr.is_store src
      || d.may_fault.(i) <> Instr.is_unsafe src
    then fail "%s: load/store/may-fault flags differ from the source's" (at ())
  in
  let check_block bi (b : Program.block) =
    let bn = Label.name b.Program.label in
    if not (Label.equal d.labels.(bi) b.Program.label) then
      fail "block %d: label %s, source %s" bi (Label.name d.labels.(bi)) bn;
    if Hashtbl.find_opt d.index bn <> Some bi then
      fail "block %s: not indexed as %d" bn bi;
    let lo = d.op_bounds.(bi) and hi = d.op_bounds.(bi + 1) in
    let len = List.length b.Program.body in
    if hi - lo <> len || hi > total then
      fail "block %s: %d ops decoded, source has %d" bn (hi - lo) len;
    List.iteri
      (fun j op ->
        check_op (lo + j) op ~at:(fun () -> Printf.sprintf "block %s op %d" bn j))
      b.Program.body;
    let target what t =
      if t < 0 || t >= nb then fail "block %s: %s target %d" bn what t
      else d.labels.(t)
    in
    let tk = d.term_kind.(bi) in
    let term =
      if tk = thalt then Instr.Halt
      else if tk = tjmp then Instr.Jmp (target "jump" d.term_t.(bi))
      else if tk = tbr then begin
        if d.term_src.(bi) < 0 then fail "block %s: branch reads no register" bn;
        Instr.Br
          {
            src = Reg.make d.term_src.(bi);
            if_true = target "taken" d.term_t.(bi);
            if_false = target "fall-through" d.term_f.(bi);
          }
      end
      else fail "block %s: terminator kind %d" bn tk
    in
    if not (Instr.equal_control term b.Program.term) then
      fail "block %s: decoded %a, source %a" bn Instr.pp_control term
        Instr.pp_control b.Program.term
  in
  try
    if d.nblocks <> nb || n d.labels <> nb || Hashtbl.length d.index <> nb then
      fail "%d blocks decoded, source has %d" d.nblocks nb;
    if n d.op_bounds <> nb + 1 || d.op_bounds.(0) <> 0 || d.op_bounds.(nb) <> total
    then fail "op_bounds do not run from 0 to %d" total;
    if
      List.exists (( <> ) total)
        [ n d.dst; n d.aux; n d.alu; n d.cmp; n d.s1_reg; n d.s1_imm;
          n d.s2_reg; n d.s2_imm; n d.is_load; n d.is_store; n d.may_fault;
          n d.ops ]
      || List.exists (( <> ) (max 1 nb))
           [ n d.term_kind; n d.term_src; n d.term_t; n d.term_f ]
    then fail "tables of different lengths";
    Array.iteri check_block blocks;
    let entry = d.source.Program.entry in
    if d.entry < 0 || d.entry >= nb || not (Label.equal d.labels.(d.entry) entry) then
      fail "entry %d does not index block %s" d.entry (Label.name entry);
    if
      d.nregs <> max 1 (Program.max_reg d.source + 1)
      || d.nconds <> max 1 (Program.max_cond d.source + 1)
    then fail "nregs %d / nconds %d do not size the source" d.nregs d.nconds;
    Ok ()
  with Mismatch m -> Error m
