open Psb_isa

type loop = { head : Label.t; body : Label.Set.t }

(* [f src head] for every back edge (an edge whose target dominates its
   source), sources in reverse post-order, each source's successors in
   order. *)
let iter_back_edges cfg dom f =
  Array.iter
    (fun i ->
      Array.iter
        (fun s -> if Dominance.dominates_at dom s i then f i s)
        (Cfg.succs_at cfg i))
    (Cfg.rpo_order cfg)

let heads cfg dom =
  let flags = Array.make (Cfg.nblocks cfg) false in
  iter_back_edges cfg dom (fun _ head -> flags.(head) <- true);
  flags

let in_rpo_order cfg f =
  Array.fold_right
    (fun i acc -> match f i with Some x -> x :: acc | None -> acc)
    (Cfg.rpo_order cfg) []

let loop_heads cfg dom =
  let flags = heads cfg dom in
  in_rpo_order cfg (fun i -> if flags.(i) then Some (Cfg.label cfg i) else None)

(* The natural loop of back edge (src, head) is head plus every block
   that reaches src without passing through head; one head's loops
   share a body, and a pull stops at a block already in it, whose
   ancestors short of the head are in it too. *)
let natural_loops cfg dom =
  let n = Cfg.nblocks cfg in
  let bodies = Array.make n [||] in
  iter_back_edges cfg dom (fun src head ->
      if Array.length bodies.(head) = 0 then begin
        bodies.(head) <- Array.make n false;
        bodies.(head).(head) <- true
      end;
      let body = bodies.(head) in
      let rec pull l =
        if not body.(l) then begin
          body.(l) <- true;
          Array.iter pull (Cfg.preds_at cfg l)
        end
      in
      pull src);
  in_rpo_order cfg (fun head ->
      if Array.length bodies.(head) = 0 then None
      else
        let body = ref Label.Set.empty in
        Array.iteri
          (fun i inside -> if inside then body := Label.Set.add (Cfg.label cfg i) !body)
          bodies.(head);
        Some { head = Cfg.label cfg head; body = !body })

let in_loop loop l = Label.Set.mem l loop.body
