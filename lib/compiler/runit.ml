open Psb_isa
module Branch_predict = Psb_cfg.Branch_predict
module Cfg = Psb_cfg.Cfg

type dir = Dtrue | Dfalse | Djmp

type uinstr = {
  uid : int;
  op : Instr.op;
  pred : Pred.t;
  dep_pred : Pred.t;
  seq : int;
}

type uexit = {
  xid : int;
  pred : Pred.t;
  target : Label.t option;
  from_branch : Cond.t option;
  seq : int;
}

type copy = { cid : int; label : Label.t; pred : Pred.t }
type step = Goto of int | Take_exit of int

let dir_index = function Dtrue -> 0 | Dfalse -> 1 | Djmp -> 2
let no_step = min_int

type t = {
  header : Label.t;
  instrs : uinstr array;
  exits : uexit array;
  copies : copy array;
  steps : int array;
  setc_of_cond : int array;
  nconds : int;
}

type params = {
  scope : Model.scope;
  max_conds : int;
  max_blocks : int;
  max_copies_per_block : int;
  grow_threshold : float;
  fuse_compare : bool;
  avoid_commit_deps : bool;
}

let default_params ~scope ~max_conds ?(fuse_compare = false)
    ?(avoid_commit_deps = false) () =
  {
    scope;
    max_conds;
    max_blocks = 24;
    max_copies_per_block = 4;
    grow_threshold = 0.12;
    fuse_compare;
    avoid_commit_deps;
  }

(* ----- Phase 1: candidate blocks and in-unit edges -----

   Blocks are CFG indices. An edge is a block's successor position
   ([Cfg.succs_at]: a branch's [if_true] at 0 and [if_false] at 1, a
   jump's target at 0); per-edge flags sit at [3 * block + dir_index]. *)

let dir_of_pos succs pos =
  if Array.length succs = 1 then Djmp else if pos = 0 then Dtrue else Dfalse

let edge_slot block succs pos = (3 * block) + dir_index (dir_of_pos succs pos)

let is_branch cfg i =
  match (Cfg.block_at cfg i).Program.term with
  | Instr.Br _ -> true
  | Instr.Jmp _ | Instr.Halt -> false

let grow_candidates params cfg bp ~header ~avoid =
  let n = Cfg.nblocks cfg in
  let candidates = Array.make n false and ncandidates = ref 1 in
  candidates.(header) <- true;
  let edge_ok = Array.make (3 * n) false in
  let branch_count = ref 0 in
  let count_branch i = if is_branch cfg i then incr branch_count in
  count_branch header;
  let may_add dst =
    (not candidates.(dst))
    && (not avoid.(dst))
    && dst <> header
    && !ncandidates < params.max_blocks
    && ((not (is_branch cfg dst)) || !branch_count < params.max_conds)
  in
  let add slot dst =
    candidates.(dst) <- true;
    incr ncandidates;
    count_branch dst;
    edge_ok.(slot) <- true
  in
  (match params.scope with
  | Model.Trace ->
      (* Follow the predicted path while allowed; joining the trace
         again would create a side entrance. *)
      let rec follow l =
        let succs = Cfg.succs_at cfg l in
        let pos =
          if Array.length succs = 2 && not (Branch_predict.predict_at bp l) then 1
          else 0
        in
        if pos < Array.length succs then begin
          let dst = succs.(pos) in
          if may_add dst then begin
            add (edge_slot l succs pos) dst;
            follow dst
          end
        end
      in
      follow header
  | Model.Region ->
      (* BFS; an edge is beneficial if static prediction gives it enough
         probability (§3.3: a heuristic function of static branch
         prediction drives region growth). A block is queued once, when
         it becomes a candidate. *)
      let queue = Array.make n header and head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let src = queue.(!head) in
        incr head;
        let succs = Cfg.succs_at cfg src in
        Array.iteri
          (fun pos dst ->
            if Branch_predict.edge_probability_at bp src pos >= params.grow_threshold
            then
              if candidates.(dst) then edge_ok.(edge_slot src succs pos) <- true
              else if may_add dst then begin
                add (edge_slot src succs pos) dst;
                queue.(!tail) <- dst;
                incr tail
              end)
          succs
      done);
  (candidates, edge_ok)

(* Topological order of the candidate subgraph from the header; edges that
   would close a cycle are cleared in [edge_ok] (they become exits). *)
let topo_candidates cfg header candidates edge_ok =
  let n = Cfg.nblocks cfg in
  let visited = Array.make n false and on_stack = Array.make n false in
  let order = ref [] in
  let rec dfs l =
    visited.(l) <- true;
    on_stack.(l) <- true;
    let succs = Cfg.succs_at cfg l in
    Array.iteri
      (fun pos dst ->
        let e = edge_slot l succs pos in
        if edge_ok.(e) && candidates.(dst) then
          if on_stack.(dst) then edge_ok.(e) <- false
          else if not visited.(dst) then dfs dst)
      succs;
    on_stack.(l) <- false;
    order := l :: !order
  in
  dfs header;
  !order

(* ----- Predicate merging at joins ----- *)

(* Two conjunctions merge when they differ in exactly one condition's
   polarity: c&p and !c&p cover the same paths as p (the equivalent-block
   rule). Returns the merged predicate. *)
let mergeable p q =
  let lp = Pred.literals p and lq = Pred.literals q in
  if List.length lp <> List.length lq then None
  else begin
    let diff =
      List.filter
        (fun (c, v) -> Pred.requires q c <> Some v)
        lp
    in
    match diff with
    | [ (c, _) ] when Pred.requires q c = Some (not (Option.get (Pred.requires p c))) ->
        (* remove c from p *)
        let lits = List.filter (fun (c', _) -> not (Cond.equal c c')) lp in
        if List.for_all (fun (c', v) -> Pred.requires q c' = Some v) lits then
          Some (Pred.of_list lits)
        else None
    | _ -> None
  end

(* Merge incoming (pred, payload) groups to a fixpoint. *)
let merge_groups groups =
  let rec step acc = function
    | [] -> List.rev acc
    | (p, es) :: rest -> (
        match
          List.find_map
            (fun (q, es') ->
              if Pred.equal p q then Some (q, es', p)
              else Option.map (fun m -> (q, es', m)) (mergeable p q))
            acc
        with
        | Some (q, es', merged) ->
            let acc = List.filter (fun (r, _) -> not (Pred.equal r q)) acc in
            step ((merged, es' @ es) :: acc) rest
        | None -> step ((p, es) :: acc) rest)
  in
  let rec fixpoint groups =
    let merged = step [] groups in
    if List.length merged < List.length groups then fixpoint merged else merged
  in
  fixpoint groups

(* A branch on [src] can take its comparison directly from a [Cmp] that
   defines [src] in the same block, provided nothing between the [Cmp] and
   the branch redefines the comparison's operands (or [src] itself). *)
let fusable_compare body src =
  let rec scan acc = function
    | [] -> acc
    | op :: rest ->
        let acc =
          match op with
          | Instr.Cmp { op = cop; dst; a; b } when Reg.equal dst src ->
              Some (cop, a, b)
          | _ ->
              let defs = Instr.defs op in
              (match acc with
              | Some (_, a, b)
                when List.exists
                       (fun r ->
                         List.exists (Reg.equal r) (Operand.regs a @ Operand.regs b))
                       defs ->
                  None
              | acc -> acc)
        in
        scan acc rest
  in
  scan None body

(* ----- Phase 2: copies, instructions, exits ----- *)

let uses_before_def body =
  List.fold_left
    (fun (uses, defs) op ->
      let uses =
        List.fold_left
          (fun u r -> if List.exists (Reg.equal r) defs then u else r :: u)
          uses (Instr.uses op)
      in
      (uses, Instr.defs op @ defs))
    ([], []) body
  |> fst

(* The unit headed by block [header], and the blocks its exits target
   (with repeats). *)
let build_at params cfg bp ~header ~avoid =
  let candidates, edge_ok = grow_candidates params cfg bp ~header ~avoid in
  let topo = topo_candidates cfg header candidates edge_ok in
  (* registers any candidate block reads before (re)defining them — the
     potential downstream consumers of a merged join's ambiguity *)
  let candidate_uses =
    lazy
      (let acc = ref Reg.Set.empty in
       Array.iteri
         (fun i inside ->
           if inside then
             List.iter
               (fun r -> acc := Reg.Set.add r !acc)
               (uses_before_def (Cfg.block_at cfg i).Program.body))
         candidates;
       !acc)
  in
  let instrs = ref [] and exits = ref [] and copies = ref [] in
  let targets = ref [] in
  let steps = ref (Array.make (3 * List.length topo) no_step) in
  let set_step cid d s =
    let k = (3 * cid) + dir_index d in
    if k >= Array.length !steps then begin
      let grown = Array.make (max (k + 1) (2 * Array.length !steps)) no_step in
      Array.blit !steps 0 grown 0 (Array.length !steps);
      steps := grown
    end;
    !steps.(k) <- s
  in
  let setcs = ref [] in
  let next_uid = ref 0 and next_xid = ref 0 and next_cid = ref 0 in
  let next_cond = ref 0 and seq = ref 0 in
  let fresh_seq () = incr seq; !seq - 1 in
  let add_instr op ~pred ~dep_pred =
    let uid = !next_uid in
    incr next_uid;
    instrs := { uid; op; pred; dep_pred; seq = fresh_seq () } :: !instrs;
    uid
  in
  (* an exit from copy [cid] in direction [d] to block [target] ([-1]:
     program halt) *)
  let exit_step cid d ~pred ~target ~from_branch =
    let xid = !next_xid in
    incr next_xid;
    let label = if target < 0 then None else Some (Cfg.label cfg target) in
    if target >= 0 then targets := target :: !targets;
    exits := { xid; pred; target = label; from_branch; seq = fresh_seq () } :: !exits;
    set_step cid d (lnot xid)
  in
  (* pending in-edges per block: (from_cid, dir, pred, from_branch) list *)
  let pending = Array.make (Cfg.nblocks cfg) [] in
  let emit_copy i pred in_edges =
    let cid = !next_cid in
    incr next_cid;
    let b = Cfg.block_at cfg i in
    copies := { cid; label = b.Program.label; pred } :: !copies;
    List.iter (fun (from, d, _, _) -> set_step from d cid) in_edges;
    List.iter (fun op -> ignore (add_instr op ~pred ~dep_pred:pred)) b.Program.body;
    let succs = Cfg.succs_at cfg i in
    (* the arm at successor position [pos], under [pred] *)
    let arm pos pred from_branch =
      let d = dir_of_pos succs pos and dst = succs.(pos) in
      if edge_ok.((3 * i) + dir_index d) && candidates.(dst) then
        pending.(dst) <- (cid, d, pred, from_branch) :: pending.(dst)
      else exit_step cid d ~pred ~target:dst ~from_branch
    in
    match b.Program.term with
    | Instr.Halt -> exit_step cid Djmp ~pred ~target:(-1) ~from_branch:None
    | Instr.Jmp _ -> arm 0 pred None
    | Instr.Br { src; _ } ->
        let c = Cond.make !next_cond in
        incr next_cond;
        let setc_op =
          match
            if params.fuse_compare then fusable_compare b.Program.body src
            else None
          with
          | Some (op, a', b') -> Instr.Setc { dst = c; op; a = a'; b = b' }
          | None ->
              Instr.Setc
                { dst = c; op = Opcode.Ne; a = Operand.reg src; b = Operand.imm 0 }
        in
        let uid = add_instr setc_op ~pred:Pred.always ~dep_pred:pred in
        setcs := uid :: !setcs;
        arm 0 (Pred.conj pred c true) (Some c);
        arm 1 (Pred.conj pred c false) (Some c)
  in
  let demote i in_edges =
    List.iter
      (fun (from, d, pred, from_branch) ->
        exit_step from d ~pred ~target:i ~from_branch)
      in_edges
  in
  List.iter
    (fun i ->
      if i = header then emit_copy i Pred.always []
      else
        match pending.(i) with
        | [] -> () (* unreachable within the unit (upstream was demoted) *)
        | in_edges ->
            let raw_groups =
              List.map (fun ((_, _, p, _) as e) -> (p, [ e ])) in_edges
            in
            let groups = merge_groups raw_groups in
            (* §4.2.2: a merged join that reads a register produced under a
               predicate its merged predicate does not imply would carry a
               commit dependence; if requested, keep the copies split (one
               per incoming predicate) instead. *)
            let groups =
              if
                params.avoid_commit_deps
                && List.length groups < List.length in_edges
              then begin
                let commit_dep_under merged =
                  List.exists
                    (fun (u : uinstr) ->
                      List.exists
                        (fun r -> Reg.Set.mem r (Lazy.force candidate_uses))
                        (Instr.defs u.op)
                      && (not (Pred.disjoint u.dep_pred merged))
                      && not (Pred.implies merged u.dep_pred))
                    !instrs
                in
                if List.exists (fun (m, _) -> commit_dep_under m) groups then
                  (* split: dedupe only exactly-equal predicates *)
                  List.fold_left
                    (fun acc (p, es) ->
                      if List.exists (fun (q, _) -> Pred.equal p q) acc then
                        List.map
                          (fun (q, qs) ->
                            if Pred.equal p q then (q, qs @ es) else (q, qs))
                          acc
                      else acc @ [ (p, es) ])
                    [] raw_groups
                else groups
              end
              else groups
            in
            let conds_needed = if is_branch cfg i then List.length groups else 0 in
            if
              List.length groups > params.max_copies_per_block
              || !next_cond + conds_needed > params.max_conds
            then demote i in_edges
            else
              List.iter (fun (pred, es) -> emit_copy i pred es) groups)
    topo;
  let ncopies = !next_cid in
  ( {
      header = Cfg.label cfg header;
      instrs = Array.of_list (List.rev !instrs);
      exits = Array.of_list (List.rev !exits);
      copies = Array.of_list (List.rev !copies);
      steps =
        (if Array.length !steps = 3 * ncopies then !steps
         else Array.sub !steps 0 (3 * ncopies));
      setc_of_cond = Array.of_list (List.rev !setcs);
      nconds = !next_cond;
    },
    !targets )

(* A profile tabulated over another program's CFG would index the wrong
   blocks. *)
let check_profile cfg bp =
  if Cfg.program (Branch_predict.cfg bp) != Cfg.program cfg then
    invalid_arg "Runit: profile built from another program's CFG"

let flags cfg labels =
  let f = Array.make (Cfg.nblocks cfg) false in
  List.iter
    (fun l -> match Cfg.index cfg l with i -> f.(i) <- true | exception Not_found -> ())
    labels;
  f

let build params cfg bp ~header ~avoid =
  check_profile cfg bp;
  fst
    (build_at params cfg bp ~header:(Cfg.index cfg header)
       ~avoid:(flags cfg (Label.Set.elements avoid)))

let step t cid d =
  let k = (3 * cid) + dir_index d in
  if cid < 0 || k >= Array.length t.steps || t.steps.(k) = no_step then None
  else if t.steps.(k) >= 0 then Some (Goto t.steps.(k))
  else Some (Take_exit (lnot t.steps.(k)))

let exit_targets t =
  Array.to_list t.exits
  |> List.filter_map (fun e -> e.target)
  |> List.sort_uniq Label.compare

(* A unit depends only on its header and the avoid set, so the order in
   which headers are reached does not matter. *)
let build_all params cfg bp ~loop_heads ~entry =
  check_profile cfg bp;
  let avoid = flags cfg (entry :: loop_heads) in
  let built = Array.make (Cfg.nblocks cfg) false in
  let units = ref Label.Map.empty in
  let rec visit h =
    if not built.(h) then begin
      built.(h) <- true;
      let u, targets = build_at params cfg bp ~header:h ~avoid in
      units := Label.Map.add u.header u !units;
      List.iter visit targets
    end
  in
  visit (Cfg.index cfg entry);
  !units

let setc_uid t c =
  let k = Cond.index c in
  if k >= 0 && k < Array.length t.setc_of_cond then t.setc_of_cond.(k)
  else invalid_arg (Format.asprintf "Runit.setc_uid: unknown %a" Cond.pp c)

let pp ppf t =
  Format.fprintf ppf "@[<v>unit %a (%d copies, %d conds):@," Label.pp t.header
    (Array.length t.copies) t.nconds;
  Array.iter
    (fun c ->
      Format.fprintf ppf "  copy %d: %a [%a]@," c.cid Label.pp c.label Pred.pp
        c.pred)
    t.copies;
  Array.iter
    (fun (i : uinstr) ->
      Format.fprintf ppf "  i%d: %a ? %a@," i.uid Pred.pp i.pred Instr.pp_op i.op)
    t.instrs;
  Array.iter
    (fun (e : uexit) ->
      Format.fprintf ppf "  x%d: %a ? -> %s@," e.xid Pred.pp e.pred
        (match e.target with Some l -> Label.name l | None -> "halt"))
    t.exits;
  Format.fprintf ppf "@]"
