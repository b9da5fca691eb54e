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

type t = {
  header : Label.t;
  instrs : uinstr array;
  exits : uexit array;
  copies : copy array;
  steps : (int * dir, step) Hashtbl.t;
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

(* ----- Phase 1: candidate labels and in-unit edges ----- *)

let successor_edges (b : Program.block) =
  match b.Program.term with
  | Instr.Br { if_true; if_false; _ } ->
      [ (Dtrue, if_true); (Dfalse, if_false) ]
  | Instr.Jmp l -> [ (Djmp, l) ]
  | Instr.Halt -> []

(* For traces, the single direction we follow out of a block. *)
let chosen_dir cfg bp label =
  match (Cfg.block cfg label).Program.term with
  | Instr.Br _ -> if Branch_predict.predict bp label then Dtrue else Dfalse
  | Instr.Jmp _ -> Djmp
  | Instr.Halt -> Djmp

let grow_candidates params cfg bp ~header ~avoid =
  let candidates = ref (Label.Set.singleton header) in
  let edge_ok : (Label.t * dir, unit) Hashtbl.t = Hashtbl.create 16 in
  let branch_count = ref 0 in
  let count_branch l =
    match (Cfg.block cfg l).Program.term with
    | Instr.Br _ -> incr branch_count
    | Instr.Jmp _ | Instr.Halt -> ()
  in
  count_branch header;
  let may_add dst =
    (not (Label.Set.mem dst !candidates))
    && (not (Label.Set.mem dst avoid))
    && (not (Label.equal dst header))
    && Label.Set.cardinal !candidates < params.max_blocks
    &&
    match (Cfg.block cfg dst).Program.term with
    | Instr.Br _ -> !branch_count < params.max_conds
    | Instr.Jmp _ | Instr.Halt -> true
  in
  (match params.scope with
  | Model.Trace ->
      (* Follow the predicted path while allowed. *)
      let rec follow l =
        let d = chosen_dir cfg bp l in
        match List.assoc_opt d (successor_edges (Cfg.block cfg l)) with
        | None -> ()
        | Some dst ->
            if may_add dst then begin
              candidates := Label.Set.add dst !candidates;
              count_branch dst;
              Hashtbl.replace edge_ok (l, d) ();
              follow dst
            end
            else if Label.Set.mem dst !candidates then
              (* joining the trace again would create a side entrance *) ()
      in
      follow header
  | Model.Region ->
      (* BFS; an edge is beneficial if static prediction gives it enough
         probability (§3.3: a heuristic function of static branch
         prediction drives region growth). *)
      let queue = Queue.create () in
      Queue.add header queue;
      while not (Queue.is_empty queue) do
        let src = Queue.pop queue in
        List.iter
          (fun (d, dst) ->
            let p = Branch_predict.edge_probability bp src dst in
            if p >= params.grow_threshold then
              if Label.Set.mem dst !candidates then
                Hashtbl.replace edge_ok (src, d) ()
              else if may_add dst then begin
                candidates := Label.Set.add dst !candidates;
                count_branch dst;
                Hashtbl.replace edge_ok (src, d) ();
                Queue.add dst queue
              end)
          (successor_edges (Cfg.block cfg src))
      done);
  (!candidates, edge_ok)

(* Topological order of the candidate subgraph from the header; edges that
   would close a cycle are removed from [edge_ok] (they become exits). *)
let topo_candidates cfg header candidates edge_ok =
  let visited = Hashtbl.create 16 and on_stack = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs l =
    Hashtbl.replace visited l ();
    Hashtbl.replace on_stack l ();
    List.iter
      (fun (d, dst) ->
        if Hashtbl.mem edge_ok (l, d) && Label.Set.mem dst candidates then
          if Hashtbl.mem on_stack dst then Hashtbl.remove edge_ok (l, d)
          else if not (Hashtbl.mem visited dst) then dfs dst)
      (successor_edges (Cfg.block cfg l));
    Hashtbl.remove on_stack l;
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

let build params cfg bp ~header ~avoid =
  let candidates, edge_ok = grow_candidates params cfg bp ~header ~avoid in
  let topo = topo_candidates cfg header candidates edge_ok in
  (* registers any candidate block reads before (re)defining them — the
     potential downstream consumers of a merged join's ambiguity *)
  let candidate_uses =
    Label.Set.fold
      (fun l acc ->
        List.fold_left
          (fun acc r -> Reg.Set.add r acc)
          acc
          (uses_before_def (Cfg.block cfg l).Program.body))
      candidates Reg.Set.empty
  in
  let instrs = ref [] and exits = ref [] and copies = ref [] in
  let steps = Hashtbl.create 32 in
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
  let add_exit ~pred ~target ~from_branch =
    let xid = !next_xid in
    incr next_xid;
    exits := { xid; pred; target; from_branch; seq = fresh_seq () } :: !exits;
    xid
  in
  (* pending in-edges per label: (from_cid, dir, pred, from_branch) list *)
  let pending : (Label.t, (int * dir * Pred.t * Cond.t option) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let push_pending l e =
    Hashtbl.replace pending l
      (e :: Option.value (Hashtbl.find_opt pending l) ~default:[])
  in
  let emit_copy label pred in_edges =
    let cid = !next_cid in
    incr next_cid;
    copies := { cid; label; pred } :: !copies;
    List.iter (fun (from, d, _, _) -> Hashtbl.replace steps (from, d) (Goto cid)) in_edges;
    let b = Cfg.block cfg label in
    List.iter (fun op -> ignore (add_instr op ~pred ~dep_pred:pred)) b.Program.body;
    (match b.Program.term with
    | Instr.Halt ->
        let xid = add_exit ~pred ~target:None ~from_branch:None in
        Hashtbl.replace steps (cid, Djmp) (Take_exit xid)
    | Instr.Jmp l ->
        if Hashtbl.mem edge_ok (label, Djmp) && Label.Set.mem l candidates then
          push_pending l (cid, Djmp, pred, None)
        else begin
          let xid = add_exit ~pred ~target:(Some l) ~from_branch:None in
          Hashtbl.replace steps (cid, Djmp) (Take_exit xid)
        end
    | Instr.Br { src; if_true; if_false } ->
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
        List.iter
          (fun (d, tgt, value) ->
            let pred' = Pred.conj pred c value in
            if Hashtbl.mem edge_ok (label, d) && Label.Set.mem tgt candidates
            then push_pending tgt (cid, d, pred', Some c)
            else begin
              let xid = add_exit ~pred:pred' ~target:(Some tgt) ~from_branch:(Some c) in
              Hashtbl.replace steps (cid, d) (Take_exit xid)
            end)
          [ (Dtrue, if_true, true); (Dfalse, if_false, false) ])
  in
  let demote label in_edges =
    List.iter
      (fun (from, d, pred, from_branch) ->
        let xid = add_exit ~pred ~target:(Some label) ~from_branch in
        Hashtbl.replace steps (from, d) (Take_exit xid))
      in_edges
  in
  List.iter
    (fun label ->
      if Label.equal label header then emit_copy label Pred.always []
      else
        match Hashtbl.find_opt pending label with
        | None -> () (* unreachable within the unit (upstream was demoted) *)
        | Some in_edges ->
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
                    (fun (i : uinstr) ->
                      List.exists
                        (fun r -> Reg.Set.mem r candidate_uses)
                        (Instr.defs i.op)
                      && (not (Pred.disjoint i.dep_pred merged))
                      && not (Pred.implies merged i.dep_pred))
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
            let is_branch =
              match (Cfg.block cfg label).Program.term with
              | Instr.Br _ -> true
              | Instr.Jmp _ | Instr.Halt -> false
            in
            let conds_needed = if is_branch then List.length groups else 0 in
            if
              List.length groups > params.max_copies_per_block
              || !next_cond + conds_needed > params.max_conds
            then demote label in_edges
            else
              List.iter (fun (pred, es) -> emit_copy label pred es) groups)
    topo;
  {
    header;
    instrs = Array.of_list (List.rev !instrs);
    exits = Array.of_list (List.rev !exits);
    copies = Array.of_list (List.rev !copies);
    steps;
    setc_of_cond = Array.of_list (List.rev !setcs);
    nconds = !next_cond;
  }

let exit_targets t =
  Array.to_list t.exits
  |> List.filter_map (fun e -> e.target)
  |> List.sort_uniq Label.compare

let build_all params cfg bp ~loop_heads ~entry =
  let avoid =
    List.fold_left (fun s l -> Label.Set.add l s) (Label.Set.singleton entry)
      loop_heads
  in
  let units = ref Label.Map.empty in
  let work = Queue.create () in
  Queue.add entry work;
  while not (Queue.is_empty work) do
    let h = Queue.pop work in
    if not (Label.Map.mem h !units) then begin
      let u = build params cfg bp ~header:h ~avoid in
      units := Label.Map.add h u !units;
      List.iter (fun tgt -> Queue.add tgt work) (exit_targets u)
    end
  done;
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
