open Psb_isa
module Index = Hashtbl.Make (String)

type t = {
  program : Program.t;
  blocks : Program.block array;
  index : int Index.t;
  succs : int array array;
  preds : int array array;
  rpo : int array;
  rpo_pos : int array;
}

let of_program program =
  let blocks = Array.of_list program.Program.blocks in
  let n = Array.length blocks in
  let index = Index.create (2 * n) in
  Array.iteri (fun i b -> Index.replace index b.Program.label i) blocks;
  let succs =
    Array.map
      (fun b -> Array.of_list (List.map (Index.find index) (Program.successors b)))
      blocks
  in
  (* Depth-first from the entry, successors in [Program.successors]
     order; a block is numbered when its last successor is done. *)
  let post = Array.make n (-1) and visited = Array.make n false in
  let count = ref 0 in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      Array.iter dfs succs.(i);
      post.(!count) <- i;
      incr count
    end
  in
  dfs (Index.find index program.Program.entry);
  let nr = !count in
  let rpo = Array.init nr (fun p -> post.(nr - 1 - p)) in
  let rpo_pos = Array.make n (-1) in
  Array.iteri (fun p i -> rpo_pos.(i) <- p) rpo;
  (* Each reachable block's distinct predecessors, the last in reverse
     post-order first. *)
  let preds = Array.make n [] in
  Array.iter
    (fun i ->
      Array.iter
        (fun s -> match preds.(s) with p :: _ when p = i -> () | l -> preds.(s) <- i :: l)
        succs.(i))
    rpo;
  {
    program;
    blocks;
    index;
    succs;
    preds = Array.map Array.of_list preds;
    rpo;
    rpo_pos;
  }

let program t = t.program
let entry t = t.program.Program.entry
let nblocks t = Array.length t.blocks

let index t l = Index.find t.index l

let label t i = t.blocks.(i).Program.label
let block_at t i = t.blocks.(i)
let succs_at t i = t.succs.(i)
let preds_at t i = t.preds.(i)
let rpo_order t = t.rpo
let rpo_pos t i = t.rpo_pos.(i)
let block t l = t.blocks.(index t l)
let succs t l = Program.successors (block t l)

let labels t is = Array.fold_right (fun i acc -> label t i :: acc) is []

let preds t l =
  match Index.find_opt t.index l with Some i -> labels t t.preds.(i) | None -> []

let rpo t = labels t t.rpo

let reachable t l =
  match Index.find_opt t.index l with Some i -> t.rpo_pos.(i) >= 0 | None -> false

let exits t =
  List.filter
    (fun l -> match (block t l).Program.term with Instr.Halt -> true | _ -> false)
    (rpo t)

let num_blocks t = Array.length t.rpo
