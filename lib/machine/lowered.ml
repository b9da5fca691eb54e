open Psb_isa

type kind = Knop | Kalu | Kmov | Kload | Kcmp | Kstore | Ksetc | Kout

type region = {
  source : Pcode.region;
  nbundles : int;
  op_bounds : int array;
  ex_bounds : int array;
  has_store : bool array;
  op_kind : kind array;
  op_cpred : Pred.compiled array;
  op_lat : int array;
  op_dst : int array;
  op_aux : int array;
  op_alu : Opcode.alu array;
  op_cmp : Opcode.cmp array;
  op_s1_reg : int array;
  op_s1_imm : int array;
  op_s1_sh : bool array;
  op_s2_reg : int array;
  op_s2_imm : int array;
  op_s2_sh : bool array;
  op_src : Pcode.pinstr array;
  ex_cpred : Pred.compiled array;
  ex_target : int array;
  ex_tgt : Pcode.exit_target array;
}

type t = {
  source : Pcode.t;
  machine : Machine_model.t;
  regions : region array;
  entry : int;
  nregs : int;
  max_bundle_ops : int;
}

let dummy_pinstr =
  {
    Pcode.pred = Pred.always;
    cpred = Pred.compiled_always;
    op = Instr.Nop;
    shadow_srcs = Reg.Set.empty;
  }

let lower_region ~machine ~region_index (r : Pcode.region) =
  let nbundles = Array.length r.Pcode.code in
  let nops = ref 0 and nexits = ref 0 in
  Array.iter
    (List.iter (function
      | Pcode.Op _ -> incr nops
      | Pcode.Exit _ -> incr nexits))
    r.Pcode.code;
  let nops = !nops and nexits = !nexits in
  let op_bounds = Array.make (nbundles + 1) 0 in
  let ex_bounds = Array.make (nbundles + 1) 0 in
  let has_store = Array.make nbundles false in
  let op_kind = Array.make nops Knop in
  let op_cpred = Array.make nops Pred.compiled_always in
  let op_lat = Array.make nops 0 in
  let op_dst = Array.make nops (-1) in
  let op_aux = Array.make nops 0 in
  let op_alu = Array.make nops Opcode.Add in
  let op_cmp = Array.make nops Opcode.Eq in
  let op_s1_reg = Array.make nops (-1) in
  let op_s1_imm = Array.make nops 0 in
  let op_s1_sh = Array.make nops false in
  let op_s2_reg = Array.make nops (-1) in
  let op_s2_imm = Array.make nops 0 in
  let op_s2_sh = Array.make nops false in
  let op_src = Array.make nops dummy_pinstr in
  let ex_cpred = Array.make nexits Pred.compiled_always in
  let ex_target = Array.make nexits (-1) in
  let ex_tgt = Array.make nexits Pcode.Stop in
  let oi = ref 0 and xi = ref 0 in
  Array.iteri
    (fun b bundle ->
      op_bounds.(b) <- !oi;
      ex_bounds.(b) <- !xi;
      List.iter
        (function
          | Pcode.Op pi ->
              let i = !oi in
              incr oi;
              let shadow_srcs = pi.Pcode.shadow_srcs in
              let s1 = function
                | Operand.Reg r ->
                    op_s1_reg.(i) <- Reg.index r;
                    op_s1_sh.(i) <- Reg.Set.mem r shadow_srcs
                | Operand.Imm v ->
                    op_s1_reg.(i) <- -1;
                    op_s1_imm.(i) <- v
              and s2 = function
                | Operand.Reg r ->
                    op_s2_reg.(i) <- Reg.index r;
                    op_s2_sh.(i) <- Reg.Set.mem r shadow_srcs
                | Operand.Imm v ->
                    op_s2_reg.(i) <- -1;
                    op_s2_imm.(i) <- v
              in
              op_src.(i) <- pi;
              op_cpred.(i) <- pi.Pcode.cpred;
              op_lat.(i) <- Machine_model.latency machine pi.Pcode.op;
              (match pi.Pcode.op with
              | Instr.Nop -> op_kind.(i) <- Knop
              | Instr.Out o ->
                  op_kind.(i) <- Kout;
                  s1 o
              | Instr.Mov { dst; src } ->
                  op_kind.(i) <- Kmov;
                  op_dst.(i) <- Reg.index dst;
                  s1 src
              | Instr.Alu { op; dst; a; b } ->
                  op_kind.(i) <- Kalu;
                  op_alu.(i) <- op;
                  op_dst.(i) <- Reg.index dst;
                  s1 a;
                  s2 b
              | Instr.Cmp { op; dst; a; b } ->
                  op_kind.(i) <- Kcmp;
                  op_cmp.(i) <- op;
                  op_dst.(i) <- Reg.index dst;
                  s1 a;
                  s2 b
              | Instr.Load { dst; base; off } ->
                  op_kind.(i) <- Kload;
                  op_dst.(i) <- Reg.index dst;
                  op_s1_reg.(i) <- Reg.index base;
                  op_s1_sh.(i) <- Reg.Set.mem base shadow_srcs;
                  op_aux.(i) <- off
              | Instr.Store { src; base; off } ->
                  op_kind.(i) <- Kstore;
                  has_store.(b) <- true;
                  op_s1_reg.(i) <- Reg.index base;
                  op_s1_sh.(i) <- Reg.Set.mem base shadow_srcs;
                  op_s2_reg.(i) <- Reg.index src;
                  op_s2_sh.(i) <- Reg.Set.mem src shadow_srcs;
                  op_aux.(i) <- off
              | Instr.Setc { dst; op; a; b } ->
                  op_kind.(i) <- Ksetc;
                  op_cmp.(i) <- op;
                  op_aux.(i) <- Cond.index dst;
                  s1 a;
                  s2 b)
          | Pcode.Exit { cpred; target; _ } ->
              let j = !xi in
              incr xi;
              ex_cpred.(j) <- cpred;
              ex_tgt.(j) <- target;
              ex_target.(j) <-
                (match target with
                | Pcode.Stop -> -1
                | Pcode.To_region l -> region_index l))
        bundle)
    r.Pcode.code;
  op_bounds.(nbundles) <- !oi;
  ex_bounds.(nbundles) <- !xi;
  {
    source = r;
    nbundles;
    op_bounds;
    ex_bounds;
    has_store;
    op_kind;
    op_cpred;
    op_lat;
    op_dst;
    op_aux;
    op_alu;
    op_cmp;
    op_s1_reg;
    op_s1_imm;
    op_s1_sh;
    op_s2_reg;
    op_s2_imm;
    op_s2_sh;
    op_src;
    ex_cpred;
    ex_target;
    ex_tgt;
  }

let count_regs (code : Pcode.t) =
  List.fold_left
    (fun acc r ->
      Array.fold_left
        (List.fold_left (fun acc slot ->
             match slot with
             | Pcode.Exit _ -> acc
             | Pcode.Op { op; _ } ->
                 List.fold_left
                   (fun acc r -> max acc (Reg.index r + 1))
                   acc
                   (Instr.defs op @ Instr.uses op)))
        acc r.Pcode.code)
    1 code.Pcode.regions

let compile ~machine (code : Pcode.t) =
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i (r : Pcode.region) ->
      Hashtbl.replace index (Label.name r.Pcode.name) i)
    code.Pcode.regions;
  let region_index l =
    match Hashtbl.find_opt index (Label.name l) with
    | Some i -> i
    | None ->
        invalid_arg
          (Format.asprintf "Lowered.compile: undefined region %a" Label.pp l)
  in
  let regions =
    Array.of_list
      (List.map (lower_region ~machine ~region_index) code.Pcode.regions)
  in
  let max_bundle_ops =
    Array.fold_left
      (fun acc r ->
        let m = ref acc in
        for b = 0 to r.nbundles - 1 do
          m := max !m (r.op_bounds.(b + 1) - r.op_bounds.(b))
        done;
        !m)
      0 regions
  in
  {
    source = code;
    machine;
    regions;
    entry = region_index code.Pcode.entry;
    nregs = count_regs code;
    max_bundle_ops;
  }

let num_ops t =
  Array.fold_left (fun acc r -> acc + Array.length r.op_kind) 0 t.regions

let num_exits t =
  Array.fold_left (fun acc r -> acc + Array.length r.ex_cpred) 0 t.regions
