type kind =
  | Region_enter
  | Region_exit
  | Pred_true
  | Pred_false
  | Issue
  | Shadow_write
  | Shadow_commit
  | Shadow_squash
  | Sb_append
  | Sb_forward
  | Sb_commit
  | Sb_flush
  | Sb_squash
  | Fault_deferred
  | Fault_raised
  | Rob_commit
  | Rob_squash
  | Op_issue
  | Stall
  | Recovery_start
  | Recovery_end
  | Sb_occupancy

let kind_name = function
  | Region_enter -> "region_enter"
  | Region_exit -> "region_exit"
  | Pred_true -> "pred_true"
  | Pred_false -> "pred_false"
  | Issue -> "issue"
  | Shadow_write -> "shadow_write"
  | Shadow_commit -> "shadow_commit"
  | Shadow_squash -> "shadow_squash"
  | Sb_append -> "sb_append"
  | Sb_forward -> "sb_forward"
  | Sb_commit -> "sb_commit"
  | Sb_flush -> "sb_flush"
  | Sb_squash -> "sb_squash"
  | Fault_deferred -> "fault_deferred"
  | Fault_raised -> "fault_raised"
  | Rob_commit -> "rob_commit"
  | Rob_squash -> "rob_squash"
  | Op_issue -> "op_issue"
  | Stall -> "stall"
  | Recovery_start -> "recovery_start"
  | Recovery_end -> "recovery_end"
  | Sb_occupancy -> "sb_occupancy"

(* All constructors of [kind] are constant, so values are immediates and
   [kinds] below is an unboxed int array: [emit] touches four flat
   arrays and three mutable ints, never the allocator. *)
type t = {
  cap : int;
  kinds : kind array;
  cycles : int array;
  aa : int array;
  bb : int array;
  mutable start : int;  (* index of the oldest held event *)
  mutable len : int;
  mutable total : int;
  mutable dropped : int;
  mutable names : string array;  (* intern table, id = index *)
  mutable num_names : int;
}

let create ?(capacity = 1 lsl 16) () =
  if capacity < 1 then invalid_arg "Events.create: capacity < 1";
  {
    cap = capacity;
    kinds = Array.make capacity Region_enter;
    cycles = Array.make capacity 0;
    aa = Array.make capacity 0;
    bb = Array.make capacity 0;
    start = 0;
    len = 0;
    total = 0;
    dropped = 0;
    names = Array.make 8 "";
    num_names = 0;
  }

let capacity t = t.cap
let length t = t.len
let total t = t.total
let dropped t = t.dropped

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.total <- 0;
  t.dropped <- 0

let emit t ~cycle kind ~a ~b =
  let i =
    if t.len < t.cap then begin
      let i = t.start + t.len in
      let i = if i >= t.cap then i - t.cap else i in
      t.len <- t.len + 1;
      i
    end
    else begin
      (* full: reuse the oldest slot and advance the window *)
      let i = t.start in
      t.start <- (if i + 1 >= t.cap then 0 else i + 1);
      t.dropped <- t.dropped + 1;
      i
    end
  in
  t.kinds.(i) <- kind;
  t.cycles.(i) <- cycle;
  t.aa.(i) <- a;
  t.bb.(i) <- b;
  t.total <- t.total + 1

let iter t f =
  for k = 0 to t.len - 1 do
    let i = t.start + k in
    let i = if i >= t.cap then i - t.cap else i in
    f t.cycles.(i) t.kinds.(i) t.aa.(i) t.bb.(i)
  done

(* A top-level scan, not a local closure: machines intern at every
   region or block entry, and that must not allocate. *)
let rec find_name names n s i =
  if i >= n then -1
  else if String.equal names.(i) s then i
  else find_name names n s (i + 1)

let intern t s =
  let n = t.num_names in
  match find_name t.names n s 0 with
  | id when id >= 0 -> id
  | _ ->
      if n = Array.length t.names then begin
        let bigger = Array.make (2 * n) "" in
        Array.blit t.names 0 bigger 0 n;
        t.names <- bigger
      end;
      t.names.(n) <- s;
      t.num_names <- n + 1;
      n

let name t id =
  if id >= 0 && id < t.num_names then t.names.(id) else Printf.sprintf "?%d" id

let to_json t =
  let events = ref [] in
  iter t (fun cycle kind a b ->
      events :=
        Json.Obj
          [
            ("cycle", Json.Int cycle);
            ("kind", Json.String (kind_name kind));
            ("a", Json.Int a);
            ("b", Json.Int b);
          ]
        :: !events);
  let names =
    List.init t.num_names (fun i -> Json.String t.names.(i))
  in
  Json.Obj
    [
      ("capacity", Json.Int t.cap);
      ("total", Json.Int t.total);
      ("dropped", Json.Int t.dropped);
      ("names", Json.List names);
      ("events", Json.List (List.rev !events));
    ]
