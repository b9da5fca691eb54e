open Psb_isa
module Machine_model = Psb_machine.Machine_model
module Pcode = Psb_machine.Pcode

type t = {
  unit_ : Runit.t;
  graph : Depgraph.t;
  issue : int array;
  length : int;
}

(* Unit classes as indices into a per-cycle capacity array. *)
let classes =
  Machine_model.[| Alu_unit; Branch_unit; Load_unit; Store_unit |]

let class_index = function
  | Machine_model.Alu_unit -> 0
  | Machine_model.Branch_unit -> 1
  | Machine_model.Load_unit -> 2
  | Machine_model.Store_unit -> 3

(* Resource demand of a node: the index of the unit class it occupies,
   or [-1] if it takes no issue slot. *)
let demand (model : Model.t) (u : Runit.t) node =
  let ni = Array.length u.Runit.instrs in
  if node < ni then
    match u.Runit.instrs.(node).Runit.op with
    | Instr.Nop -> -1
    | Instr.Setc _ -> if model.Model.branch_elim then 0 else 1
    | op -> class_index (Machine_model.unit_of_op op)
  else if model.Model.branch_elim then 1
  else
    match u.Runit.exits.(node - ni).Runit.from_branch with
    | Some _ -> -1 (* the branch (Setc) pays the slot *)
    | None -> 1

let is_setc_node (u : Runit.t) node =
  node < Array.length u.Runit.instrs
  && match u.Runit.instrs.(node).Runit.op with Instr.Setc _ -> true | _ -> false

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

let schedule (model : Model.t) (machine : Machine_model.t) ~single_shadow u =
  let g = Depgraph.build model machine ~single_shadow u in
  let ni = Depgraph.n_instrs g in
  let n = Depgraph.n_nodes g in
  let issue = Array.make n (-1) in
  (* per node: in-edges whose source is still unplaced, and the earliest
     cycle the placed sources allow *)
  let pending = Array.init n (Depgraph.in_degree g) in
  let earliest = Array.make n 0 in
  let cls = Array.init n (demand model u) in
  let k =
    match model.Model.cond_limit with
    | None -> machine.Machine_model.max_spec_conds
    | Some l -> Int.min l machine.Machine_model.max_spec_conds
  in
  (* Conditions visible at the current cycle (their Setc issued in an
     earlier one), as a mask. *)
  let resolved = ref 0 and newly = ref 0 in
  let t = ref 0 in
  let unresolved_ok node =
    node >= ni
    || popcount (u.Runit.instrs.(node).Runit.pred.Pred.mask land lnot !resolved)
       <= k
  in
  (* unplaced nodes in priority order: critical-path height, then index *)
  let live = Array.init n Fun.id in
  Array.stable_sort
    (fun a b -> compare (Depgraph.height g b) (Depgraph.height g a))
    live;
  let nlive = ref n in
  let snapshot = Array.make n 0 in
  let capacity = Array.map (Machine_model.units_available machine) classes in
  let cap = Array.copy capacity in
  let slots = ref 0 and has_setc = ref false and has_exit = ref false in
  let release dst lat =
    pending.(dst) <- pending.(dst) - 1;
    if !t + lat > earliest.(dst) then earliest.(dst) <- !t + lat
  in
  let try_place node =
    let c = cls.(node) in
    let setc = is_setc_node u node and exit_ = node >= ni in
    let fits = c < 0 || (cap.(c) > 0 && !slots > 0) in
    let structural_ok =
      (not model.Model.executable)
      || ((not (setc && !has_exit)) && not (exit_ && !has_setc))
    in
    if fits && structural_ok then begin
      issue.(node) <- !t;
      if c >= 0 then begin
        decr slots;
        cap.(c) <- cap.(c) - 1
      end;
      if setc then begin
        (match u.Runit.instrs.(node).Runit.op with
        | Instr.Setc { dst; _ } -> newly := !newly lor (1 lsl Cond.index dst)
        | _ -> ());
        has_setc := true
      end;
      if exit_ then has_exit := true;
      Depgraph.iter_out g node release
    end
  in
  let deadline = 100_000 in
  while !nlive > 0 do
    if !t > deadline then failwith "Sched.schedule: no progress (cyclic constraints?)";
    (* capacity for this cycle *)
    slots := machine.Machine_model.issue_width;
    Array.blit capacity 0 cap 0 (Array.length cap);
    has_setc := false;
    has_exit := false;
    (* Iterate to a fixpoint within the cycle: placing a node can make a
       zero-latency successor (completion edges, WAR) ready in the same
       bundle. Each pass places the nodes ready when it starts, so such a
       successor waits for the next pass. Condition visibility cannot
       change within the cycle, so this converges. *)
    let progress = ref true in
    while !progress && !nlive > 0 do
      let ready = ref 0 in
      for i = 0 to !nlive - 1 do
        let node = live.(i) in
        if pending.(node) = 0 && earliest.(node) <= !t && unresolved_ok node
        then begin
          snapshot.(!ready) <- node;
          incr ready
        end
      done;
      for i = 0 to !ready - 1 do
        try_place snapshot.(i)
      done;
      let kept = ref 0 in
      for i = 0 to !nlive - 1 do
        let node = live.(i) in
        if issue.(node) < 0 then begin
          live.(!kept) <- node;
          incr kept
        end
      done;
      progress := !kept < !nlive;
      nlive := !kept
    done;
    resolved := !resolved lor !newly;
    newly := 0;
    incr t
  done;
  let length =
    Array.fold_left
      (fun acc (x : Runit.uexit) -> Int.max acc (issue.(ni + x.xid) + 1))
      1 u.Runit.exits
  in
  { unit_ = u; graph = g; issue; length }

let exit_cycle t xid = t.issue.(Depgraph.n_instrs t.graph + xid)

let check t (model : Model.t) (machine : Machine_model.t) =
  let g = t.graph in
  let n = Depgraph.n_nodes g in
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* edges *)
  for node = 0 to n - 1 do
    Depgraph.iter_in g node (fun src lat ->
        if t.issue.(src) + lat > t.issue.(node) then
          err "edge %d->%d (lat %d) violated: %d -> %d" src node lat
            t.issue.(src) t.issue.(node))
  done;
  (* resources per cycle, counted from the issue array *)
  let cycles = Array.fold_left Int.max (-1) t.issue + 1 in
  let nclasses = Array.length classes in
  let slots = Array.make cycles 0 and used = Array.make (cycles * nclasses) 0 in
  let setc = Array.make cycles false and exit_ = Array.make cycles false in
  for node = 0 to n - 1 do
    let c = t.issue.(node) in
    if c < 0 then err "node %d unscheduled" node
    else begin
      if is_setc_node t.unit_ node then setc.(c) <- true;
      if node >= Depgraph.n_instrs g then exit_.(c) <- true;
      let k = demand model t.unit_ node in
      if k >= 0 then begin
        slots.(c) <- slots.(c) + 1;
        used.((c * nclasses) + k) <- used.((c * nclasses) + k) + 1
      end
    end
  done;
  for c = 0 to cycles - 1 do
    if slots.(c) > machine.Machine_model.issue_width then
      err "cycle %d: %d slots > issue width" c slots.(c);
    for k = 0 to nclasses - 1 do
      if used.((c * nclasses) + k) > Machine_model.units_available machine classes.(k)
      then err "cycle %d: unit class over-subscribed" c
    done;
    if model.Model.executable && setc.(c) && exit_.(c) then
      err "cycle %d: Setc bundled with an exit" c
  done;
  match !errors with [] -> Ok () | e :: _ -> Error e

let emit t =
  let u = t.unit_ in
  let ni = Depgraph.n_instrs t.graph in
  (* per bundle, ops and exits, each most recent first *)
  let ops = Array.make t.length [] and exits = Array.make t.length [] in
  Array.iter
    (fun (i : Runit.uinstr) ->
      match i.op with
      | Instr.Nop -> ()
      | _ ->
          let c = t.issue.(i.uid) in
          (* A Setc scheduled after the last exit can never execute: every
             path has left the region. Drop it. *)
          if c < t.length then
            ops.(c) <-
              Pcode.op ~shadow_srcs:(Depgraph.shadow_srcs t.graph i.uid) i.pred
                i.op
              :: ops.(c))
    u.Runit.instrs;
  Array.iter
    (fun (x : Runit.uexit) ->
      let c = t.issue.(ni + x.xid) in
      let slot =
        match x.target with
        | Some l -> Pcode.exit_to x.pred l
        | None -> Pcode.exit_stop x.pred
      in
      exits.(c) <- slot :: exits.(c))
    u.Runit.exits;
  (* ops before exits inside each bundle, original insertion order *)
  let code = Array.mapi (fun c ops -> List.rev_append ops (List.rev exits.(c))) ops in
  {
    Pcode.name = u.Runit.header;
    code;
    source_blocks =
      Array.to_list u.Runit.copies |> List.map (fun c -> c.Runit.label);
  }

let pp ppf t =
  let ni = Depgraph.n_instrs t.graph in
  Format.fprintf ppf "@[<v>schedule for %a (length %d):@," Label.pp
    t.unit_.Runit.header t.length;
  Array.iter
    (fun (i : Runit.uinstr) ->
      Format.fprintf ppf "  t=%d  i%d %a ? %a@," t.issue.(i.uid) i.uid Pred.pp
        i.pred Instr.pp_op i.op)
    t.unit_.Runit.instrs;
  Array.iter
    (fun (x : Runit.uexit) ->
      Format.fprintf ppf "  t=%d  x%d %a ? exit@," t.issue.(ni + x.xid) x.xid
        Pred.pp x.pred)
    t.unit_.Runit.exits;
  Format.fprintf ppf "@]"
