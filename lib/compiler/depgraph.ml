open Psb_isa
module Machine_model = Psb_machine.Machine_model

type t = {
  n_instrs : int;
  n_exits : int;
  in_edges : (int * int) list array;
  out_edges : (int * int) list array;
  shadow : Reg.Set.t array;
  heights : int array;
}

let n_instrs t = t.n_instrs
let n_exits t = t.n_exits
let n_nodes t = t.n_instrs + t.n_exits
let in_edges t n = t.in_edges.(n)
let out_edges t n = t.out_edges.(n)
let shadow_srcs t uid = t.shadow.(uid)
let height t n = t.heights.(n)

(* ----- symbolic addresses for alias analysis ----- *)

type root = Init of Reg.t | Opaque of int (* uid of the defining instr *)
type sym = Addr of root * int | Top

(* Two initial-register roots are assumed disjoint (workloads place their
   structures at distinct bases — the end-to-end equivalence tests check
   the assumption). A computed (opaque) address may point anywhere, so it
   conservatively aliases everything except a provably different offset
   from the same opaque definition. *)
let may_alias a b =
  match (a, b) with
  | Top, _ | _, Top -> true
  | Addr (r1, o1), Addr (r2, o2) -> (
      match (r1, r2) with
      | Init x, Init y -> if Reg.equal x y then o1 = o2 else false
      | Opaque x, Opaque y -> if x = y then o1 = o2 else true
      | Init _, Opaque _ | Opaque _, Init _ -> true)

(* Symbolic register values along the unit's linear order. The value of a
   register after an instruction is tracked only when the write is
   unconditional enough to be unambiguous: a write under a non-always
   predicate makes the register Top for later readers on other paths.
   (Conservative: Top may-aliases everything.) *)
let compute_syms (u : Runit.t) ~defs ~nregs =
  let tbl : (int, sym array) Hashtbl.t = Hashtbl.create 64 in
  let cur = Array.init nregs (fun i -> Addr (Init (Reg.make i), 0)) in
  Array.iter
    (fun (i : Runit.uinstr) ->
      (* record the environment *before* instruction i *)
      Hashtbl.replace tbl i.uid (Array.copy cur);
      let operand_sym = function
        | Operand.Reg r -> cur.(Reg.index r)
        | Operand.Imm _ -> Top
      in
      let new_value =
        match i.op with
        | Instr.Mov { src = Operand.Reg r; _ } -> cur.(Reg.index r)
        | Instr.Mov { src = Operand.Imm _; _ } -> Addr (Opaque i.uid, 0)
        | Instr.Alu { op = Opcode.Add; a; b; _ } -> (
            match (operand_sym a, (a, b)) with
            | Addr (r, o), (_, Operand.Imm k) -> Addr (r, o + k)
            | _, (Operand.Imm k, Operand.Reg rb) -> (
                match cur.(Reg.index rb) with
                | Addr (r, o) -> Addr (r, o + k)
                | Top -> Addr (Opaque i.uid, 0))
            | _ -> Addr (Opaque i.uid, 0))
        | Instr.Alu { op = Opcode.Sub; a; b = Operand.Imm k; _ } -> (
            match operand_sym a with
            | Addr (r, o) -> Addr (r, o - k)
            | Top -> Addr (Opaque i.uid, 0))
        | Instr.Alu _ | Instr.Load _ | Instr.Cmp _ -> Addr (Opaque i.uid, 0)
        | Instr.Store _ | Instr.Setc _ | Instr.Out _ | Instr.Nop -> Top
      in
      List.iter
        (fun r ->
          cur.(Reg.index r) <-
            (if Pred.is_always i.pred then new_value else Top))
        defs.(i.uid))
    u.Runit.instrs;
  fun uid r ->
    match Hashtbl.find_opt tbl uid with
    | Some env when Reg.index r < Array.length env -> env.(Reg.index r)
    | _ -> Top

let addr_sym syms (i : Runit.uinstr) =
  match i.op with
  | Instr.Load { base; off; _ } | Instr.Store { base; off; _ } -> (
      match syms i.uid base with
      | Addr (r, o) -> Addr (r, o + off)
      | Top -> Top)
  | _ -> Top

(* ----- graph construction ----- *)

let build (model : Model.t) (machine : Machine_model.t) ~single_shadow
    (u : Runit.t) =
  let ni = Array.length u.Runit.instrs in
  let nx = Array.length u.Runit.exits in
  let n = ni + nx in
  let in_e = Array.make n [] and out_e = Array.make n [] in
  let shadow = Array.make ni Reg.Set.empty in
  let add_edge src dst lat =
    if src <> dst then begin
      in_e.(dst) <- (src, lat) :: in_e.(dst);
      out_e.(src) <- (dst, lat) :: out_e.(src)
    end
  in
  let lat_of (i : Runit.uinstr) = Machine_model.latency machine i.op in
  let instrs = u.Runit.instrs in
  let is_setc (i : Runit.uinstr) =
    match i.op with Instr.Setc _ -> true | _ -> false
  in
  let setc_node c = Runit.setc_uid u c in
  let cond_edges_to dst_node pred lat =
    Pred.iter_conds (fun c _ -> add_edge (setc_node c) dst_node lat) pred
  in
  (* Instructions are indexed by uid. Each one's registers are listed
     once, and [compatible] (not on mutually exclusive paths) is decided
     at most once per pair. *)
  let defs = Array.map (fun (i : Runit.uinstr) -> Instr.defs i.op) instrs in
  let uses = Array.map (fun (i : Runit.uinstr) -> Instr.uses i.op) instrs in
  let nregs =
    let top = List.fold_left (fun acc r -> max acc (Reg.index r + 1)) in
    Array.fold_left top (Array.fold_left top 1 defs) uses
  in
  (* per register, in uid order: the instructions that write it, and
     those that read or write it *)
  let writers = Array.make nregs [] and touchers = Array.make nregs [] in
  let push tbl i r =
    match tbl.(Reg.index r) with
    | i' :: _ when i' == i -> () (* the same instruction names [r] twice *)
    | l -> tbl.(Reg.index r) <- i :: l
  in
  for k = ni - 1 downto 0 do
    List.iter (push writers instrs.(k)) defs.(k);
    List.iter (push touchers instrs.(k)) defs.(k);
    List.iter (push touchers instrs.(k)) uses.(k)
  done;
  let memo = Bytes.make (ni * ni) '?' in
  let compatible (i : Runit.uinstr) (j : Runit.uinstr) =
    let k = (i.uid * ni) + j.uid in
    match Bytes.get memo k with
    | 'y' -> true
    | 'n' -> false
    | _ ->
        let c = not (Pred.disjoint i.dep_pred j.dep_pred) in
        Bytes.set memo k (if c then 'y' else 'n');
        c
  in
  (* --- register dependences --- *)
  (* For each consumer and each used register, classify all compatible
     earlier producers. *)
  Array.iter
    (fun (j : Runit.uinstr) ->
      let uses = List.sort_uniq Reg.compare uses.(j.uid) in
      List.iter
        (fun r ->
          let producers =
            List.filter
              (fun (i : Runit.uinstr) -> i.seq < j.seq && compatible i j)
              writers.(Reg.index r)
          in
          if producers <> [] then begin
            let mixed =
              List.exists
                (fun (i : Runit.uinstr) -> not (Pred.implies j.dep_pred i.dep_pred))
                producers
            in
            List.iter
              (fun (i : Runit.uinstr) ->
                add_edge i.uid j.uid (lat_of i);
                if mixed then
                  (* commit dependence: wait until every producer's
                     predicate resolves, then read the sequential state *)
                  cond_edges_to j.uid i.pred 1)
              producers;
            if not mixed then begin
              (* the latest producer wins; fetch from the shadow state if
                 it may still be speculative *)
              let latest =
                List.fold_left
                  (fun acc (i : Runit.uinstr) ->
                    match acc with
                    | Some (a : Runit.uinstr) when a.seq > i.seq -> acc
                    | _ -> Some i)
                  None producers
              in
              match latest with
              | Some p when not (Pred.is_always p.pred) ->
                  shadow.(j.uid) <- Reg.Set.add r shadow.(j.uid)
              | Some _ | None -> ()
            end
          end)
        uses)
    instrs;
  (* WAR / WAW / shadow serialization *)
  Array.iter
    (fun (j : Runit.uinstr) ->
      List.iter
        (fun r ->
          List.iter
            (fun (i : Runit.uinstr) ->
              if i.seq < j.seq then begin
                (* WAR *)
                if List.exists (Reg.equal r) uses.(i.uid) && compatible i j then
                  add_edge i.uid j.uid 0;
                if List.exists (Reg.equal r) defs.(i.uid) then begin
                  let compatible = compatible i j in
                  (* WAW *)
                  if compatible then add_edge i.uid j.uid 1;
                  if
                    model.Model.executable
                    && (not (Pred.is_always i.pred))
                    && (not (Pred.is_always j.pred))
                    && not (Pred.equal i.pred j.pred)
                  then
                    if compatible then
                      (* Commit-order hazard: if both writes can be live
                         speculatively and the earlier one's predicate may
                         resolve later, it would clobber the later write's
                         committed value. The later write's writeback must
                         land strictly after the cycle in which the earlier
                         predicate resolves (writebacks apply before the
                         commit tick within a cycle). *)
                      cond_edges_to j.uid i.pred (2 - lat_of j)
                    else if single_shadow then
                      (* Mutually exclusive writes never both commit, but a
                         single shadow entry cannot hold both pending
                         versions (fn. 1): serialise to avoid the storage
                         conflict stall. *)
                      cond_edges_to j.uid i.pred (1 - lat_of j)
                end
              end)
            touchers.(Reg.index r))
        defs.(j.uid))
    instrs;
  (* --- memory and output ordering --- *)
  let syms = compute_syms u ~defs ~nregs in
  let mem_ops =
    Array.to_list instrs
    |> List.filter_map (fun i ->
           if Instr.is_memory i.Runit.op then Some (i, addr_sym syms i)
           else None)
  in
  List.iter
    (fun ((j : Runit.uinstr), sj) ->
      List.iter
        (fun ((i : Runit.uinstr), si) ->
          if i.seq < j.seq && compatible i j then begin
            let alias = may_alias si sj in
            if alias then
              match (Instr.is_store i.op, Instr.is_store j.op) with
              | false, false -> () (* load-load *)
              | true, false ->
                  (* store → load: forwarding needs the entry appended; a
                     partially overlapping store is a commit dependence *)
                  add_edge i.uid j.uid 1;
                  if not (Pred.implies j.dep_pred i.dep_pred) then
                    cond_edges_to j.uid i.pred 1
              | false, true -> add_edge i.uid j.uid 0 (* load → store WAR *)
              | true, true -> add_edge i.uid j.uid 1 (* store order *)
          end)
        mem_ops)
    mem_ops;
  (* observable output order *)
  let outs =
    Array.to_list instrs
    |> List.filter (fun i -> match i.Runit.op with Instr.Out _ -> true | _ -> false)
  in
  let rec chain = function
    | a :: (b :: _ as rest) ->
        add_edge a.Runit.uid b.Runit.uid 1;
        chain rest
    | [ _ ] | [] -> ()
  in
  chain outs;
  (* --- speculation classes --- *)
  Array.iter
    (fun (j : Runit.uinstr) ->
      if not (is_setc j) then
        match Model.spec_class_of model j.op with
        | Model.Buffered -> ()
        | Model.No_spec -> cond_edges_to j.uid j.pred 1
        | Model.Squash w -> cond_edges_to j.uid j.pred (1 - w))
    instrs;
  (* --- branches in non-predicated models execute sequentially; so do
     condition-set instructions under counter-type predicates (§4.2.1) --- *)
  if (not model.Model.branch_elim) || model.Model.counter_preds then begin
    let setcs =
      Array.to_list instrs |> List.filter is_setc
      |> List.sort (fun (a : Runit.uinstr) (b : Runit.uinstr) ->
             compare a.seq b.seq)
    in
    chain setcs;
    (* a branch retires its block: it waits for its own path conditions *)
    List.iter (fun (s : Runit.uinstr) -> cond_edges_to s.uid s.dep_pred 1) setcs
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
      cond_edges_to xnode x.pred (if model.Model.branch_elim then 1 else 0);
      (* completion: everything on a path that leaves through this exit
         must have issued when the exit fires *)
      Array.iter
        (fun (i : Runit.uinstr) ->
          if
            i.seq < x.seq && (not (is_setc i))
            && (match i.op with Instr.Nop -> false | _ -> true)
            && not (Pred.disjoint i.dep_pred x.pred)
          then add_edge i.uid xnode 0)
        instrs)
    u.Runit.exits;
  (* --- critical-path heights (reverse topological by node index) --- *)
  let heights = Array.make n 0 in
  (* Edges are seq-forward; instruction uid order equals seq order and
     exits come after their sources, but exit/instr indices interleave in
     seq. Process nodes in decreasing seq order. *)
  let seq_of node =
    if node < ni then instrs.(node).Runit.seq
    else u.Runit.exits.(node - ni).Runit.seq
  in
  let order = List.init n (fun i -> i) in
  let order =
    List.sort (fun a b -> compare (seq_of b) (seq_of a)) order
  in
  List.iter
    (fun node ->
      let h =
        List.fold_left
          (fun acc (dst, lat) -> max acc (heights.(dst) + max lat 0 + 1))
          0 out_e.(node)
      in
      heights.(node) <- h)
    order;
  {
    n_instrs = ni;
    n_exits = nx;
    in_edges = in_e;
    out_edges = out_e;
    shadow;
    heights;
  }
