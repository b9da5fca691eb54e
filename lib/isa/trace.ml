type t = {
  block_counts : (Label.t, int) Hashtbl.t;
  edge_counts : (Label.t * Label.t, int) Hashtbl.t;
  (* Per dynamic branch, in execution order: (branch block, went-to-if_true). *)
  branch_stream : (Label.t * bool) array;
  (* Per branch block: (taken, not taken) over [branch_stream]. *)
  taken_counts : (Label.t, int * int) Hashtbl.t;
}

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let of_blocks program blocks =
  let block_counts = Hashtbl.create 64 in
  let edge_counts = Hashtbl.create 64 in
  let stream_rev = ref [] in
  let taken_counts = Hashtbl.create 64 in
  let rec walk = function
    | [] -> ()
    | [ last ] -> bump block_counts last
    | b1 :: (b2 :: _ as rest) ->
        bump block_counts b1;
        bump edge_counts (b1, b2);
        (match (Program.find program b1).Program.term with
        | Instr.Br { if_true; _ } ->
            let taken = Label.equal b2 if_true in
            stream_rev := (b1, taken) :: !stream_rev;
            let t, n =
              Option.value (Hashtbl.find_opt taken_counts b1) ~default:(0, 0)
            in
            Hashtbl.replace taken_counts b1
              (if taken then (t + 1, n) else (t, n + 1))
        | Instr.Jmp _ | Instr.Halt -> ());
        walk rest
  in
  walk blocks;
  {
    block_counts;
    edge_counts;
    branch_stream = Array.of_list (List.rev !stream_rev);
    taken_counts;
  }

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
  Array.map (fun (b, taken) -> predict t b = taken) t.branch_stream

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
