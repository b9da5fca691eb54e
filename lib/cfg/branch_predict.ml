open Psb_isa

(* Per block index: the predicted direction, its confidence, and the
   probability of each successor position ([Cfg.succs_at]'s order). *)
type t = {
  cfg : Cfg.t;
  predicted : bool array;
  confidence : float array;
  probs : float array array;
}

(* [source i if_true] gives branch block [i]'s predicted direction, its
   confidence and the probability that it goes to [if_true]. *)
let tabulate cfg source =
  let n = Cfg.nblocks cfg in
  let predicted = Array.make n true and confidence = Array.make n 1.0 in
  let probs =
    Array.init n (fun i ->
        match (Cfg.block_at cfg i).Program.term with
        | Instr.Br { if_true; if_false; _ } ->
            let pred, conf, p_true = source i if_true in
            predicted.(i) <- pred;
            confidence.(i) <- conf;
            (* A branch can target the same label on both arms: each
               position holds the label's summed probability. *)
            let prob dst =
              let p = ref 0.0 in
              if Label.equal dst if_true then p := !p +. p_true;
              if Label.equal dst if_false then p := !p +. (1.0 -. p_true);
              !p
            in
            [| prob if_true; prob if_false |]
        | Instr.Jmp _ -> [| 1.0 |]
        | Instr.Halt -> [||])
  in
  { cfg; predicted; confidence; probs }

let of_trace cfg trace =
  tabulate cfg (fun i _ ->
      let l = Cfg.label cfg i in
      let pred = Trace.predict trace l in
      match Trace.taken_fraction trace l with
      | Some f -> (pred, (if pred then f else 1.0 -. f), f)
      | None -> (pred, 0.5, 0.5))

(* Backward-taken heuristic: predict the successor that is a loop head
   dominating this block (a back edge). *)
let heuristic cfg dom =
  tabulate cfg (fun i if_true ->
      let pred = Dominance.dominates_at dom (Cfg.index cfg if_true) i in
      (pred, 0.6, if pred then 0.6 else 0.4))

let cfg t = t.cfg
let predict_at t i = t.predicted.(i)
let edge_probability_at t i pos = t.probs.(i).(pos)
let predict t l = t.predicted.(Cfg.index t.cfg l)
let confidence t l = t.confidence.(Cfg.index t.cfg l)

let edge_probability t src dst =
  let i = Cfg.index t.cfg src in
  let succs = Cfg.succs_at t.cfg i in
  let rec find pos =
    if pos >= Array.length succs then 0.0
    else if Label.equal (Cfg.label t.cfg succs.(pos)) dst then t.probs.(i).(pos)
    else find (pos + 1)
  in
  find 0

let fingerprint b t =
  (* Everything the compiler can observe of a profile — per reachable
     block (in the CFG's reverse post-order, so the walk is
     deterministic): the predicted direction, its confidence, and the
     probability of every outgoing edge. Two profiles with the same
     fingerprint schedule identically, which is what the compile cache
     needs from its key. Counts and string lengths are 8-byte
     little-endian ints and floats their exact IEEE bits, so the
     encoding is injective. *)
  let add_int i = Buffer.add_int64_le b (Int64.of_int i) in
  let add_float f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  let add_label i =
    let s = Label.name (Cfg.label t.cfg i) in
    add_int (String.length s);
    Buffer.add_string b s
  in
  let rpo = Cfg.rpo_order t.cfg in
  add_int (Array.length rpo);
  Array.iter
    (fun i ->
      add_label i;
      Buffer.add_char b (if t.predicted.(i) then 'T' else 'F');
      add_float t.confidence.(i);
      let succs = Cfg.succs_at t.cfg i in
      add_int (Array.length succs);
      Array.iteri
        (fun pos s ->
          add_label s;
          add_float t.probs.(i).(pos))
        succs)
    rpo
