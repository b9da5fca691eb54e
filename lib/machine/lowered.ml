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
  ex_cpred : Pred.compiled array;
  ex_target : int array;
}

type t = {
  source : Pcode.t;
  machine : Machine_model.t;
  regions : region array;
  entry : int;
  nregs : int;
  max_bundle_ops : int;
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
  let ex_cpred = Array.make nexits Pred.compiled_always in
  let ex_target = Array.make nexits (-1) in
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
    ex_cpred;
    ex_target;
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

(* ----- the round-trip check -----

   The inverse of [compile]: raise every lowered row back to the slot it
   stands for and compare it with the source. The tables are read only
   after the bounds that index them are checked. *)

exception Mismatch of string

let check (t : t) =
  let fail fmt = Format.kasprintf (fun m -> raise (Mismatch m)) fmt in
  let sources = Array.of_list t.source.Pcode.regions in
  let nregions = Array.length sources in
  let names tidx l =
    tidx >= 0 && tidx < nregions && Label.equal sources.(tidx).Pcode.name l
  in
  let nregs = ref 1 and widest = ref 0 in
  (* operation row [i] against its source slot [pi]; [at] names the slot *)
  let check_op lr ~at i (pi : Pcode.pinstr) =
    let reg what k =
      if k < 0 then fail "%s: %s is not a register" at what else Reg.make k
    in
    let opnd k imm = if k < 0 then Operand.Imm imm else Operand.Reg k in
    let s1 = opnd lr.op_s1_reg.(i) lr.op_s1_imm.(i)
    and s2 = opnd lr.op_s2_reg.(i) lr.op_s2_imm.(i)
    and dst () = reg "dst" lr.op_dst.(i)
    and base () = reg "base" lr.op_s1_reg.(i)
    and off = lr.op_aux.(i)
    and alu = lr.op_alu.(i)
    and cmp = lr.op_cmp.(i) in
    (* the op, and how many of the two source operands it has *)
    let op, arity =
      match lr.op_kind.(i) with
      | Knop -> (Instr.Nop, 0)
      | Kout -> (Instr.Out s1, 1)
      | Kmov -> (Instr.Mov { dst = dst (); src = s1 }, 1)
      | Kalu -> (Instr.Alu { op = alu; dst = dst (); a = s1; b = s2 }, 2)
      | Kcmp -> (Instr.Cmp { op = cmp; dst = dst (); a = s1; b = s2 }, 2)
      | Kload -> (Instr.Load { dst = dst (); base = base (); off }, 1)
      | Kstore ->
          let src = reg "data" lr.op_s2_reg.(i) in
          (Instr.Store { src; base = base (); off }, 2)
      | Ksetc ->
          if off < 0 then fail "%s: condition %d" at off;
          (Instr.Setc { dst = Cond.make off; op = cmp; a = s1; b = s2 }, 2)
    in
    if op <> pi.Pcode.op then
      fail "%s: lowered %a, source %a" at Instr.pp_op op Instr.pp_op
        pi.Pcode.op;
    (* the walk reads both operand registers of every executed row *)
    let operand k r sh =
      if r >= 0 && k > arity then
        fail "%s: operand %d r%d is not the op's" at k r;
      if r >= 0 && sh <> Reg.Set.mem r pi.Pcode.shadow_srcs then
        fail "%s: operand %d r%d shadow flag %b, source %b" at k r sh (not sh)
    in
    operand 1 lr.op_s1_reg.(i) lr.op_s1_sh.(i);
    operand 2 lr.op_s2_reg.(i) lr.op_s2_sh.(i);
    if not (Pred.equal_c lr.op_cpred.(i) pi.Pcode.cpred) then
      fail "%s: predicate differs from the source slot's" at;
    let lat = Machine_model.latency t.machine op in
    if lr.op_lat.(i) <> lat then
      fail "%s: latency %d, machine says %d" at lr.op_lat.(i) lat;
    List.iter
      (fun r -> nregs := max !nregs (Reg.index r + 1))
      (Instr.defs op @ Instr.uses op)
  in
  let check_region (lr : region) =
    let rn = Label.name lr.source.Pcode.name and code = lr.source.Pcode.code in
    let nb = Array.length code in
    if lr.nbundles <> nb then
      fail "region %s: %d bundles lowered, source has %d" rn lr.nbundles nb;
    let n = Array.length in
    let nops = n lr.op_kind and nexits = n lr.ex_cpred in
    let closed what (bounds : int array) total =
      if n bounds <> nb + 1 || bounds.(0) <> 0 || bounds.(nb) <> total then
        fail "region %s: %s do not run from 0 to %d" rn what total;
      for b = 0 to nb - 1 do
        if bounds.(b + 1) < bounds.(b) then
          fail "region %s bundle %d: %s not monotone" rn b what
      done
    in
    closed "op_bounds" lr.op_bounds nops;
    closed "ex_bounds" lr.ex_bounds nexits;
    if
      List.exists (( <> ) nops)
        [ n lr.op_cpred; n lr.op_lat; n lr.op_dst; n lr.op_aux; n lr.op_alu;
          n lr.op_cmp; n lr.op_s1_reg; n lr.op_s1_imm; n lr.op_s1_sh;
          n lr.op_s2_reg; n lr.op_s2_imm; n lr.op_s2_sh ]
      || n lr.ex_target <> nexits || n lr.has_store <> nb
    then fail "region %s: tables of different lengths" rn;
    Array.iteri
      (fun b bundle ->
        let ops =
          List.filter_map
            (function Pcode.Op pi -> Some pi | Pcode.Exit _ -> None)
            bundle
        and exits =
          List.filter_map
            (function
              | Pcode.Exit { cpred; target; _ } -> Some (cpred, target)
              | Pcode.Op _ -> None)
            bundle
        in
        let lo = lr.op_bounds.(b) and xlo = lr.ex_bounds.(b) in
        let nb_ops = lr.op_bounds.(b + 1) - lo
        and nb_exits = lr.ex_bounds.(b + 1) - xlo in
        if nb_ops <> List.length ops || nb_exits <> List.length exits then
          fail "region %s bundle %d: %d ops and %d exits lowered, source has \
                %d and %d"
            rn b nb_ops nb_exits (List.length ops) (List.length exits);
        widest := max !widest nb_ops;
        List.iteri
          (fun j pi ->
            check_op lr (lo + j) pi
              ~at:(Printf.sprintf "region %s bundle %d op slot %d" rn b j))
          ops;
        let stores = List.exists (fun pi -> Instr.is_store pi.Pcode.op) ops in
        if lr.has_store.(b) <> stores then
          fail "region %s bundle %d: has_store %b, source %b" rn b
            lr.has_store.(b) stores;
        List.iteri
          (fun j (cpred, target) ->
            let at = Printf.sprintf "region %s bundle %d exit slot %d" rn b j in
            let tidx = lr.ex_target.(xlo + j) in
            if not (Pred.equal_c lr.ex_cpred.(xlo + j) cpred) then
              fail "%s: predicate differs from the source exit's" at;
            match target with
            | Pcode.Stop ->
                if tidx <> -1 then fail "%s: target %d for a stop" at tidx
            | Pcode.To_region l ->
                if not (names tidx l) then
                  fail "%s: target %d, source exits to %a" at tidx Label.pp l)
          exits)
      code
  in
  try
    if Array.length t.regions <> nregions then
      fail "%d regions lowered, source has %d" (Array.length t.regions)
        nregions;
    Array.iteri
      (fun i (lr : region) ->
        if lr.source != sources.(i) then
          fail "region %d: not lowered from source region %s" i
            (Label.name sources.(i).Pcode.name);
        check_region lr)
      t.regions;
    if not (names t.entry t.source.Pcode.entry) then
      fail "entry %d does not index region %a" t.entry Label.pp
        t.source.Pcode.entry;
    if t.max_bundle_ops <> !widest then
      fail "max_bundle_ops %d, source's widest bundle has %d ops"
        t.max_bundle_ops !widest;
    if t.nregs <> !nregs then fail "nregs %d, source needs %d" t.nregs !nregs;
    Ok ()
  with Mismatch m -> Error m
