open Psb_isa

type t = {
  cfg : Cfg.t;
  dom : Label.Set.t Label.Map.t; (* block -> its dominators *)
}

(* Iterative set-based dataflow: dom(b) = {b} ∪ ⋂ dom(preds b). Graphs here
   are small (tens of blocks), so the simple algorithm is the right one. *)
let compute cfg =
  let nodes = Cfg.rpo cfg and entry = Cfg.entry cfg in
  let all = List.fold_left (fun s l -> Label.Set.add l s) Label.Set.empty nodes in
  let init =
    List.fold_left
      (fun m l ->
        Label.Map.add l
          (if Label.equal l entry then Label.Set.singleton l else all)
          m)
      Label.Map.empty nodes
  in
  let step m =
    List.fold_left
      (fun (m, changed) l ->
        if Label.equal l entry then (m, changed)
        else
          let meet =
            match Cfg.preds cfg l with
            | [] -> Label.Set.singleton l
            | p :: rest ->
                List.fold_left
                  (fun acc q -> Label.Set.inter acc (Label.Map.find q m))
                  (Label.Map.find p m) rest
          in
          let s = Label.Set.add l meet in
          if Label.Set.equal s (Label.Map.find l m) then (m, changed)
          else (Label.Map.add l s m, true))
      (m, false) nodes
  in
  let rec fixpoint m =
    let m, changed = step m in
    if changed then fixpoint m else m
  in
  { cfg; dom = fixpoint init }

let dominates t a b =
  match Label.Map.find_opt b t.dom with
  | Some s -> Label.Set.mem a s
  | None -> false

let idom t b =
  match Label.Map.find_opt b t.dom with
  | None -> None
  | Some s ->
      let strict = Label.Set.remove b s in
      (* The immediate dominator is the strict dominator dominated by all
         other strict dominators. *)
      Label.Set.fold
        (fun cand acc ->
          match acc with
          | Some best when dominates t cand best -> acc
          | _ when Label.Set.for_all (fun d -> dominates t d cand) strict ->
              Some cand
          | _ -> acc)
        strict None

let dominance_frontier t b =
  List.filter
    (fun y ->
      (not (dominates t b y && not (Label.equal b y)))
      && List.exists (fun p -> dominates t b p) (Cfg.preds t.cfg y))
    (Cfg.rpo t.cfg)
