(* The reference the indexed [Cfg], [Dominance] and [Loops] are compared
   against: the label-keyed versions they replaced. The reverse
   post-order is a DFS that finds each block with [Program.find];
   predecessors are a [Label.Map] of lists; dominator sets are an
   iterative [Label.Set] dataflow, dom(b) = {b} ∪ ⋂ dom(preds b), run to
   a fixpoint; the immediate dominator is the strict dominator that all
   the others dominate; natural loops pull each back edge's body over
   the label predecessors. *)

open Psb_isa

type t = {
  program : Program.t;
  rpo : Label.t list;
  preds : Label.t list Label.Map.t;
  dom : Label.Set.t Label.Map.t; (* block -> its dominators *)
}

let compute_rpo program =
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec dfs l =
    if not (Hashtbl.mem visited l) then begin
      Hashtbl.add visited l ();
      List.iter dfs (Program.successors (Program.find program l));
      order := l :: !order
    end
  in
  dfs program.Program.entry;
  !order

let rpo t = t.rpo
let preds t l = Option.value (Label.Map.find_opt l t.preds) ~default:[]

let compute program =
  let rpo = compute_rpo program in
  let pred_map =
    List.fold_left
      (fun acc l ->
        List.fold_left
          (fun acc s ->
            let existing = Option.value (Label.Map.find_opt s acc) ~default:[] in
            if List.exists (Label.equal l) existing then acc
            else Label.Map.add s (l :: existing) acc)
          acc
          (Program.successors (Program.find program l)))
      Label.Map.empty rpo
  in
  let t = { program; rpo; preds = pred_map; dom = Label.Map.empty } in
  let entry = program.Program.entry in
  let all = List.fold_left (fun s l -> Label.Set.add l s) Label.Set.empty rpo in
  let init =
    List.fold_left
      (fun m l ->
        Label.Map.add l
          (if Label.equal l entry then Label.Set.singleton l else all)
          m)
      Label.Map.empty rpo
  in
  let step m =
    List.fold_left
      (fun (m, changed) l ->
        if Label.equal l entry then (m, changed)
        else
          let meet =
            match preds t l with
            | [] -> Label.Set.singleton l
            | p :: rest ->
                List.fold_left
                  (fun acc q -> Label.Set.inter acc (Label.Map.find q m))
                  (Label.Map.find p m) rest
          in
          let s = Label.Set.add l meet in
          if Label.Set.equal s (Label.Map.find l m) then (m, changed)
          else (Label.Map.add l s m, true))
      (m, false) rpo
  in
  let rec fixpoint m =
    let m, changed = step m in
    if changed then fixpoint m else m
  in
  { t with dom = fixpoint init }

let dominates t a b =
  match Label.Map.find_opt b t.dom with
  | Some s -> Label.Set.mem a s
  | None -> false

let idom t b =
  match Label.Map.find_opt b t.dom with
  | None -> None
  | Some s ->
      let strict = Label.Set.remove b s in
      Label.Set.fold
        (fun cand acc ->
          match acc with
          | Some best when dominates t cand best -> acc
          | _ when Label.Set.for_all (fun d -> dominates t d cand) strict ->
              Some cand
          | _ -> acc)
        strict None

let back_edges t =
  List.concat_map
    (fun l ->
      List.filter_map
        (fun s -> if dominates t s l then Some (l, s) else None)
        (Program.successors (Program.find t.program l)))
    t.rpo

(* Natural loop of back edge (src, head): head plus all nodes that reach
   src without passing through head. *)
let loop_body t (src, head) =
  let body = ref (Label.Set.add head Label.Set.empty) in
  let rec pull l =
    if not (Label.Set.mem l !body) then begin
      body := Label.Set.add l !body;
      List.iter pull (preds t l)
    end
  in
  pull src;
  !body

(* (head, body) per loop, in reverse post-order of the head *)
let natural_loops t =
  let by_head = Hashtbl.create 8 in
  List.iter
    (fun ((_, head) as e) ->
      let cur =
        Option.value (Hashtbl.find_opt by_head head) ~default:Label.Set.empty
      in
      Hashtbl.replace by_head head (Label.Set.union cur (loop_body t e)))
    (back_edges t);
  List.filter_map
    (fun l -> Option.map (fun body -> (l, body)) (Hashtbl.find_opt by_head l))
    t.rpo

let loop_heads t = List.map fst (natural_loops t)
