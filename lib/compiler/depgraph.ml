open Psb_isa
module Machine_model = Psb_machine.Machine_model

(* Edges in compressed sparse rows: the in-edges of node [v] are
   [in_src.(k), in_lat.(k)] for [k] in [in_start.(v) .. in_start.(v+1)-1],
   and likewise for out-edges. *)
type t = {
  n_instrs : int;
  n_exits : int;
  in_start : int array;
  in_src : int array;
  in_lat : int array;
  out_start : int array;
  out_dst : int array;
  out_lat : int array;
  shadow : Reg.Set.t array;
  heights : int array;
}

let n_instrs t = t.n_instrs
let n_exits t = t.n_exits
let n_nodes t = t.n_instrs + t.n_exits
let in_degree t n = t.in_start.(n + 1) - t.in_start.(n)

let iter_in t n f =
  for k = t.in_start.(n) to t.in_start.(n + 1) - 1 do
    f t.in_src.(k) t.in_lat.(k)
  done

let iter_out t n f =
  for k = t.out_start.(n) to t.out_start.(n + 1) - 1 do
    f t.out_dst.(k) t.out_lat.(k)
  done

let shadow_srcs t uid = t.shadow.(uid)
let height t n = t.heights.(n)

(* ----- registers of an operation, as ints ([-1] = none) ----- *)

let def_reg = function
  | Instr.Alu { dst; _ } | Instr.Mov { dst; _ } | Instr.Load { dst; _ }
  | Instr.Cmp { dst; _ } ->
      Reg.index dst
  | Instr.Store _ | Instr.Setc _ | Instr.Out _ | Instr.Nop -> -1

let operand_reg = function Operand.Reg r -> Reg.index r | Operand.Imm _ -> -1

(* The first and second register read, in [Instr.uses] order; a register
   read twice appears twice. *)
let use1 = function
  | Instr.Alu { a; b; _ } | Instr.Cmp { a; b; _ } | Instr.Setc { a; b; _ } ->
      let ra = operand_reg a in
      if ra >= 0 then ra else operand_reg b
  | Instr.Mov { src; _ } | Instr.Out src -> operand_reg src
  | Instr.Load { base; _ } -> Reg.index base
  | Instr.Store { src; _ } -> Reg.index src
  | Instr.Nop -> -1

let use2 = function
  | Instr.Alu { a; b; _ } | Instr.Cmp { a; b; _ } | Instr.Setc { a; b; _ } ->
      if operand_reg a >= 0 then operand_reg b else -1
  | Instr.Store { base; _ } -> Reg.index base
  | Instr.Mov _ | Instr.Out _ | Instr.Load _ | Instr.Nop -> -1

(* ----- symbolic addresses for alias analysis -----

   A symbolic value is a root and an offset. Roots are ints: [2 r] is
   the initial value of register [r], [2 uid + 1] the value computed by
   instruction [uid] (opaque), and [top] an unknown value. *)

let top = -1

(* Two initial-register roots are assumed disjoint (workloads place their
   structures at distinct bases — the end-to-end equivalence tests check
   the assumption). A computed (opaque) address may point anywhere, so it
   conservatively aliases everything except a provably different offset
   from the same opaque definition. *)
let may_alias r1 o1 r2 o2 =
  if r1 = top || r2 = top then true
  else if r1 = r2 then o1 = o2
  else (r1 land 1) = 1 || (r2 land 1) = 1

(* ----- graph construction ----- *)

(* A growable edge list of (src, dst, lat) triples. *)
type edges = {
  mutable src : int array;
  mutable dst : int array;
  mutable lat : int array;
  mutable len : int;
}

let push e s d l =
  if e.len = Array.length e.src then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    e.src <- grow e.src;
    e.dst <- grow e.dst;
    e.lat <- grow e.lat
  end;
  e.src.(e.len) <- s;
  e.dst.(e.len) <- d;
  e.lat.(e.len) <- l;
  e.len <- e.len + 1

(* Compressed rows of the edges keyed by [key] (dst for in-edges, src for
   out-edges), each row in insertion order. *)
let rows n e ~key ~other =
  let start = Array.make (n + 1) 0 in
  for k = 0 to e.len - 1 do
    start.(key.(k) + 1) <- start.(key.(k) + 1) + 1
  done;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let fill = Array.sub start 0 n in
  let nodes = Array.make e.len 0 and lats = Array.make e.len 0 in
  for k = 0 to e.len - 1 do
    let v = key.(k) in
    nodes.(fill.(v)) <- other.(k);
    lats.(fill.(v)) <- e.lat.(k);
    fill.(v) <- fill.(v) + 1
  done;
  (start, nodes, lats)

(* Per register, in uid order, the instructions that name it in [r1],
   [r2] or [r3] (register indices per instruction, [-1] = none):
   compressed rows over [nregs] registers, each instruction listed at
   most once per register. *)
let by_register nregs r1 r2 r3 =
  let start = Array.make (nregs + 1) 0 in
  let each f =
    for i = 0 to Array.length r1 - 1 do
      let a = r1.(i) and b = r2.(i) and c = r3.(i) in
      if a >= 0 then f i a;
      if b >= 0 && b <> a then f i b;
      if c >= 0 && c <> a && c <> b then f i c
    done
  in
  each (fun _ r -> start.(r + 1) <- start.(r + 1) + 1);
  for r = 1 to nregs do
    start.(r) <- start.(r) + start.(r - 1)
  done;
  let fill = Array.sub start 0 nregs in
  let members = Array.make start.(nregs) 0 in
  each (fun i r ->
      members.(fill.(r)) <- i;
      fill.(r) <- fill.(r) + 1);
  (start, members)

let build (model : Model.t) (machine : Machine_model.t) ~single_shadow
    (u : Runit.t) =
  let instrs = u.Runit.instrs and exits = u.Runit.exits in
  let ni = Array.length instrs and nx = Array.length exits in
  let n = ni + nx in
  let e =
    let cap = Int.max 16 (4 * n) in
    { src = Array.make cap 0; dst = Array.make cap 0; lat = Array.make cap 0; len = 0 }
  in
  let add_edge src dst lat = if src <> dst then push e src dst lat in
  let lat = Array.map (fun (i : Runit.uinstr) -> Machine_model.latency machine i.op) instrs in
  let pred k = instrs.(k).Runit.pred and dep k = instrs.(k).Runit.dep_pred in
  let is_setc k = match instrs.(k).Runit.op with Instr.Setc _ -> true | _ -> false in
  (* edges from the condition-set instruction of every condition [p]
     names, in condition order *)
  let cond_edges_to dst_node (p : Pred.t) lat =
    let m = ref p.Pred.mask and c = ref 0 in
    while !m <> 0 do
      if !m land 1 = 1 then add_edge (Runit.setc_uid u (Cond.make !c)) dst_node lat;
      m := !m lsr 1;
      incr c
    done
  in
  (* not on mutually exclusive paths *)
  let compatible i j = not (Pred.disjoint (dep i) (dep j)) in
  let def = Array.map (fun (i : Runit.uinstr) -> def_reg i.op) instrs in
  let u1 = Array.map (fun (i : Runit.uinstr) -> use1 i.op) instrs in
  let u2 = Array.map (fun (i : Runit.uinstr) -> use2 i.op) instrs in
  let uses k r = u1.(k) = r || u2.(k) = r in
  let nregs =
    let m = ref 0 in
    for k = 0 to ni - 1 do
      m := Int.max !m (Int.max def.(k) (Int.max u1.(k) u2.(k)))
    done;
    !m + 1
  in
  let none = Array.make ni (-1) in
  let w_start, writers = by_register nregs def none none in
  let t_start, touchers = by_register nregs def u1 u2 in
  let shadow = Array.make ni Reg.Set.empty in
  (* --- register dependences --- *)
  (* For each consumer and each register it reads, classify all
     compatible earlier producers. *)
  for j = 0 to ni - 1 do
    let consume r =
      (* producers: writers of [r] before [j] on a compatible path *)
      let any = ref false and mixed = ref false and latest = ref (-1) in
      let k = ref w_start.(r) in
      while !k < w_start.(r + 1) && writers.(!k) < j do
        let i = writers.(!k) in
        if compatible i j then begin
          any := true;
          latest := i;
          if not (Pred.implies (dep j) (dep i)) then mixed := true
        end;
        incr k
      done;
      if !any then begin
        for k = w_start.(r) to w_start.(r + 1) - 1 do
          let i = writers.(k) in
          if i < j && compatible i j then begin
            add_edge i j lat.(i);
            if !mixed then
              (* commit dependence: wait until every producer's predicate
                 resolves, then read the sequential state *)
              cond_edges_to j (pred i) 1
          end
        done;
        (* the latest producer wins; fetch from the shadow state if it
           may still be speculative *)
        if (not !mixed) && not (Pred.is_always instrs.(!latest).Runit.pred)
        then shadow.(j) <- Reg.Set.add (Reg.make r) shadow.(j)
      end
    in
    let a = u1.(j) and b = u2.(j) in
    (* each distinct register once, in register order *)
    if a >= 0 && b >= 0 && a <> b then begin
      consume (Int.min a b);
      consume (Int.max a b)
    end
    else if a >= 0 then consume a
    else if b >= 0 then consume b
  done;
  (* WAR / WAW / shadow serialization *)
  for j = 0 to ni - 1 do
    let r = def.(j) in
    if r >= 0 then
      for k = t_start.(r) to t_start.(r + 1) - 1 do
        let i = touchers.(k) in
        if i < j then begin
          (* WAR *)
          if uses i r && compatible i j then add_edge i j 0;
          if def.(i) = r then begin
            let compatible = compatible i j in
            (* WAW *)
            if compatible then add_edge i j 1;
            let pi = pred i and pj = pred j in
            if
              model.Model.executable
              && (not (Pred.is_always pi))
              && (not (Pred.is_always pj))
              && not (Pred.equal pi pj)
            then
              if compatible then
                (* Commit-order hazard: if both writes can be live
                   speculatively and the earlier one's predicate may
                   resolve later, it would clobber the later write's
                   committed value. The later write's writeback must land
                   strictly after the cycle in which the earlier predicate
                   resolves (writebacks apply before the commit tick
                   within a cycle). *)
                cond_edges_to j pi (2 - lat.(j))
              else if single_shadow then
                (* Mutually exclusive writes never both commit, but a
                   single shadow entry cannot hold both pending versions
                   (fn. 1): serialise to avoid the storage conflict
                   stall. *)
                cond_edges_to j pi (1 - lat.(j))
          end
        end
      done
  done;
  (* --- memory and output ordering --- *)
  (* Symbolic register values along the unit's linear order, in one
     environment updated in place; each memory op records the address it
     reads. A register's value after an instruction is tracked only when
     the write is unconditional enough to be unambiguous: a write under a
     non-always predicate makes the register [top] for later readers on
     other paths (conservative: [top] may-aliases everything). *)
  let env_root = Array.init nregs (fun r -> 2 * r) in
  let env_off = Array.make nregs 0 in
  let mem = Array.make ni 0 and mem_root = Array.make ni 0 and mem_off = Array.make ni 0 in
  let nmem = ref 0 in
  for k = 0 to ni - 1 do
    let i = instrs.(k) in
    (match i.Runit.op with
    | Instr.Load { base; off; _ } | Instr.Store { base; off; _ } ->
        let root = env_root.(Reg.index base) in
        mem.(!nmem) <- k;
        mem_root.(!nmem) <- root;
        mem_off.(!nmem) <- env_off.(Reg.index base) + off;
        incr nmem
    | _ -> ());
    let d = def.(k) in
    if d >= 0 then begin
      let opaque = (2 * k) + 1 in
      (* a [top] value's offset is never read *)
      let set root off =
        if Pred.is_always i.Runit.pred then begin
          env_root.(d) <- root;
          env_off.(d) <- off
        end
        else env_root.(d) <- top
      in
      let of_reg r k' =
        (* register [r]'s value plus [k'], or opaque if unknown *)
        if env_root.(r) = top then set opaque 0 else set env_root.(r) (env_off.(r) + k')
      in
      match i.Runit.op with
      | Instr.Mov { src = Operand.Reg r; _ } ->
          set env_root.(Reg.index r) env_off.(Reg.index r)
      | Instr.Alu { op = Opcode.Add; a = Operand.Reg ra; b = Operand.Imm k'; _ }
        when env_root.(Reg.index ra) <> top ->
          of_reg (Reg.index ra) k'
      | Instr.Alu { op = Opcode.Add; a = Operand.Imm k'; b = Operand.Reg rb; _ } ->
          of_reg (Reg.index rb) k'
      | Instr.Alu { op = Opcode.Sub; a = Operand.Reg ra; b = Operand.Imm k'; _ } ->
          of_reg (Reg.index ra) (-k')
      | Instr.Mov { src = Operand.Imm _; _ }
      | Instr.Alu _ | Instr.Load _ | Instr.Cmp _ ->
          set opaque 0
      | Instr.Store _ | Instr.Setc _ | Instr.Out _ | Instr.Nop -> ()
    end
  done;
  for jm = 0 to !nmem - 1 do
    let j = mem.(jm) in
    let j_store = Instr.is_store instrs.(j).Runit.op in
    for im = 0 to jm - 1 do
      let i = mem.(im) in
      if
        compatible i j
        && may_alias mem_root.(im) mem_off.(im) mem_root.(jm) mem_off.(jm)
      then
        match (Instr.is_store instrs.(i).Runit.op, j_store) with
        | false, false -> () (* load-load *)
        | true, false ->
            (* store → load: forwarding needs the entry appended; a
               partially overlapping store is a commit dependence *)
            add_edge i j 1;
            if not (Pred.implies (dep j) (dep i)) then cond_edges_to j (pred i) 1
        | false, true -> add_edge i j 0 (* load → store WAR *)
        | true, true -> add_edge i j 1 (* store order *)
    done
  done;
  (* observable output order, and (below) the branch order: each in uid
     order, consecutive pairs one cycle apart *)
  let chain keep =
    let last = ref (-1) in
    for k = 0 to ni - 1 do
      if keep k then begin
        if !last >= 0 then add_edge !last k 1;
        last := k
      end
    done
  in
  chain (fun k -> match instrs.(k).Runit.op with Instr.Out _ -> true | _ -> false);
  (* --- speculation classes --- *)
  for j = 0 to ni - 1 do
    if not (is_setc j) then
      match Model.spec_class_of model instrs.(j).Runit.op with
      | Model.Buffered -> ()
      | Model.No_spec -> cond_edges_to j (pred j) 1
      | Model.Squash w -> cond_edges_to j (pred j) (1 - w)
  done;
  (* --- branches in non-predicated models execute sequentially; so do
     condition-set instructions under counter-type predicates (§4.2.1) --- *)
  if (not model.Model.branch_elim) || model.Model.counter_preds then begin
    chain is_setc;
    (* a branch retires its block: it waits for its own path conditions *)
    for s = 0 to ni - 1 do
      if is_setc s then cond_edges_to s (dep s) 1
    done
  end;
  (* --- exits --- *)
  Array.iter
    (fun (x : Runit.uexit) ->
      let xnode = ni + x.xid in
      (* A predicated exit fires once the CCR holds its predicate (one
         cycle after the condition-set instructions). In non-predicated
         models the exit is ordinary control flow: it happens no earlier
         than the branches that guard its path resolve (same cycle as the
         last of them — branches redirect at execute under the BTB
         assumption). *)
      cond_edges_to xnode x.Runit.pred (if model.Model.branch_elim then 1 else 0);
      (* completion: everything on a path that leaves through this exit
         must have issued when the exit fires *)
      for k = 0 to ni - 1 do
        let i = instrs.(k) in
        if
          i.Runit.seq < x.seq && (not (is_setc k))
          && (match i.Runit.op with Instr.Nop -> false | _ -> true)
          && not (Pred.disjoint (dep k) x.Runit.pred)
        then add_edge k xnode 0
      done)
    exits;
  let in_start, in_src, in_lat = rows n e ~key:e.dst ~other:e.src in
  let out_start, out_dst, out_lat = rows n e ~key:e.src ~other:e.dst in
  (* --- critical-path heights --- *)
  (* Edges point seq-forward, so nodes are visited in decreasing seq:
     instructions (uid order is seq order) and exits (likewise by xid)
     merged from the back. *)
  let heights = Array.make n 0 in
  let visit node =
    let h = ref 0 in
    for k = out_start.(node) to out_start.(node + 1) - 1 do
      h := Int.max !h (heights.(out_dst.(k)) + Int.max out_lat.(k) 0 + 1)
    done;
    heights.(node) <- !h
  in
  let i = ref (ni - 1) and x = ref (nx - 1) in
  while !i >= 0 || !x >= 0 do
    if !x < 0 || (!i >= 0 && instrs.(!i).Runit.seq > exits.(!x).Runit.seq) then begin
      visit !i;
      decr i
    end
    else begin
      visit (ni + !x);
      decr x
    end
  done;
  {
    n_instrs = ni;
    n_exits = nx;
    in_start;
    in_src;
    in_lat;
    out_start;
    out_dst;
    out_lat;
    shadow;
    heights;
  }
