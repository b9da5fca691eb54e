type t = {
  block_counts : (Label.t, int) Hashtbl.t;
  edge_counts : (Label.t * Label.t, int) Hashtbl.t;
  (* Per dynamic branch, in execution order: twice the branch block's
     index, plus one if it went to [if_true]. *)
  branch_stream : int array;
  (* Per branch block: (taken, not taken) over [branch_stream]. *)
  taken_counts : (Label.t, int * int) Hashtbl.t;
  (* Per block index: the direction [predict] gives. *)
  predicted : bool array;
}

(* Counting works on block indices: blocks, branch directions and
   static successor edges are counted in int arrays, and the
   label-keyed tables are filled once at the end. Only a pair that is
   not a static successor edge (possible only in a hand-made trace)
   goes straight into the label-keyed edge table. *)
let of_blocks program trace =
  let bs = Array.of_list program.Program.blocks in
  let n = Array.length bs in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf "Trace.of_blocks: block index %d outside the program" i))
    trace;
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i b -> Hashtbl.replace index b.Program.label i) bs;
  let succs =
    Array.map
      (fun b -> Array.of_list (List.map (Hashtbl.find index) (Program.successors b)))
      bs
  in
  let if_true =
    Array.map
      (fun b ->
        match b.Program.term with
        | Instr.Br { if_true; _ } -> Hashtbl.find index if_true
        | Instr.Jmp _ | Instr.Halt -> -1)
      bs
  in
  let counts = Array.make n 0 in
  let edges = Array.map (fun s -> Array.make (Array.length s) 0) succs in
  let taken = Array.make n 0 and not_taken = Array.make n 0 in
  let edge_counts = Hashtbl.create 64 in
  let len = Array.length trace in
  for k = 0 to len - 1 do
    let i = trace.(k) in
    counts.(i) <- counts.(i) + 1;
    if k + 1 < len then begin
      let j = trace.(k + 1) in
      let s = succs.(i) in
      let p = ref 0 in
      while !p < Array.length s && s.(!p) <> j do
        incr p
      done;
      if !p < Array.length s then edges.(i).(!p) <- edges.(i).(!p) + 1
      else begin
        let key = (bs.(i).Program.label, bs.(j).Program.label) in
        Hashtbl.replace edge_counts key
          (1 + Option.value (Hashtbl.find_opt edge_counts key) ~default:0)
      end;
      if if_true.(i) >= 0 then
        if j = if_true.(i) then taken.(i) <- taken.(i) + 1
        else not_taken.(i) <- not_taken.(i) + 1
    end
  done;
  let nbranches = Array.fold_left ( + ) 0 taken + Array.fold_left ( + ) 0 not_taken in
  let branch_stream = Array.make nbranches 0 in
  let b = ref 0 in
  for k = 0 to len - 2 do
    let i = trace.(k) in
    if if_true.(i) >= 0 then begin
      branch_stream.(!b) <- (2 * i) + Bool.to_int (trace.(k + 1) = if_true.(i));
      incr b
    end
  done;
  let block_counts = Hashtbl.create 64 in
  let taken_counts = Hashtbl.create 64 in
  Array.iteri
    (fun i b ->
      let l = b.Program.label in
      if counts.(i) > 0 then Hashtbl.replace block_counts l counts.(i);
      Array.iteri
        (fun p j ->
          if edges.(i).(p) > 0 then
            Hashtbl.replace edge_counts (l, bs.(j).Program.label) edges.(i).(p))
        succs.(i);
      if taken.(i) + not_taken.(i) > 0 then
        Hashtbl.replace taken_counts l (taken.(i), not_taken.(i)))
    bs;
  let predicted = Array.init n (fun i -> taken.(i) >= not_taken.(i)) in
  { block_counts; edge_counts; branch_stream; taken_counts; predicted }

let of_result program (r : Interp.result) = of_blocks program r.Interp.block_trace

let block_count t l = Option.value (Hashtbl.find_opt t.block_counts l) ~default:0

let edge_count t ~src ~dst =
  Option.value (Hashtbl.find_opt t.edge_counts (src, dst)) ~default:0

let hot_blocks ?limit t =
  let all =
    Hashtbl.fold (fun l n acc -> (l, n) :: acc) t.block_counts []
    |> List.sort (fun (la, na) (lb, nb) ->
           match compare nb na with
           | 0 -> compare (Label.name la) (Label.name lb)
           | c -> c)
  in
  match limit with
  | None -> all
  | Some n -> List.filteri (fun i _ -> i < n) all

let dynamic_branches t = Array.length t.branch_stream

let taken_fraction t l =
  Option.map
    (fun (tk, n) -> float_of_int tk /. float_of_int (tk + n))
    (Hashtbl.find_opt t.taken_counts l)

let predict t l =
  match Hashtbl.find_opt t.taken_counts l with
  | Some (tk, n) -> tk >= n
  | None -> true

let correctness t =
  Array.map (fun e -> t.predicted.(e lsr 1) = (e land 1 = 1)) t.branch_stream

let prediction_accuracy t =
  let c = correctness t in
  let n = Array.length c in
  if n = 0 then 1.0
  else
    float_of_int (Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 c)
    /. float_of_int n

let successive_accuracy t n =
  if n <= 0 then invalid_arg "Trace.successive_accuracy: n must be positive";
  let c = correctness t in
  let len = Array.length c in
  if len < n then 1.0
  else begin
    (* Sliding window: maintain the count of correct predictions inside the
       current window; a window counts iff all [n] are correct. *)
    let in_window = ref 0 in
    for i = 0 to n - 1 do
      if c.(i) then incr in_window
    done;
    let good = ref (if !in_window = n then 1 else 0) in
    for i = n to len - 1 do
      if c.(i - n) then decr in_window;
      if c.(i) then incr in_window;
      if !in_window = n then incr good
    done;
    float_of_int !good /. float_of_int (len - n + 1)
  end
