open Psb_isa

type source =
  | Profile of Trace.t
  | Heuristic of Dominance.t

type t = { cfg : Cfg.t; source : source }

let of_trace cfg trace = { cfg; source = Profile trace }
let heuristic cfg dom = { cfg; source = Heuristic dom }

let branch_of t l =
  match (Cfg.block t.cfg l).Program.term with
  | Instr.Br { src; if_true; if_false } -> Some (src, if_true, if_false)
  | Instr.Jmp _ | Instr.Halt -> None

let predict t l =
  match branch_of t l with
  | None -> true
  | Some (_, if_true, _) -> (
      match t.source with
      | Profile trace -> Trace.predict trace l
      | Heuristic dom ->
          (* Backward-taken heuristic: predict the successor that is a loop
             head dominating this block (a back edge). *)
          Dominance.dominates dom if_true l)

let confidence t l =
  match branch_of t l with
  | None -> 1.0
  | Some _ -> (
      match t.source with
      | Profile trace -> (
          match Trace.taken_fraction trace l with
          | Some f -> if predict t l then f else 1.0 -. f
          | None -> 0.5)
      | Heuristic _ -> 0.6)

let edge_probability t src dst =
  match branch_of t src with
  | None ->
      if List.exists (Label.equal dst) (Cfg.succs t.cfg src) then 1.0 else 0.0
  | Some (_, if_true, if_false) ->
      let p_true =
        match t.source with
        | Profile trace ->
            Option.value (Trace.taken_fraction trace src) ~default:0.5
        | Heuristic _ -> if predict t src then 0.6 else 0.4
      in
      (* A branch can target the same label on both arms. *)
      let p = ref 0.0 in
      if Label.equal dst if_true then p := !p +. p_true;
      if Label.equal dst if_false then p := !p +. (1.0 -. p_true);
      !p

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
  let add_label l =
    let s = Label.name l in
    add_int (String.length s);
    Buffer.add_string b s
  in
  let blocks = Cfg.blocks t.cfg in
  add_int (List.length blocks);
  List.iter
    (fun (blk : Program.block) ->
      let l = blk.Program.label in
      add_label l;
      Buffer.add_char b (if predict t l then 'T' else 'F');
      add_float (confidence t l);
      let succs = Program.successors blk in
      add_int (List.length succs);
      List.iter
        (fun s ->
          add_label s;
          add_float (edge_probability t l s))
        succs)
    blocks
