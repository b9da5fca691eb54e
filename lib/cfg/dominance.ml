type t = {
  cfg : Cfg.t;
  idom : int array; (* RPO position -> its immediate dominator's; 0 for the entry *)
}

(* Cooper, Harvey & Kennedy, "A Simple, Fast Dominance Algorithm"
   (2001), over reverse post-order positions: a dominator always sits
   earlier in the order, so two fingers climb the idom tree until they
   meet. *)
let compute cfg =
  let rpo = Cfg.rpo_order cfg in
  let n = Array.length rpo in
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if a > b then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = 1 to n - 1 do
      let meet =
        Array.fold_left
          (fun acc q ->
            let q = Cfg.rpo_pos cfg q in
            if idom.(q) < 0 then acc else if acc < 0 then q else intersect q acc)
          (-1) (Cfg.preds_at cfg rpo.(p))
      in
      if idom.(p) <> meet then begin
        idom.(p) <- meet;
        changed := true
      end
    done
  done;
  { cfg; idom }

let dominates_at t a b =
  let pa = Cfg.rpo_pos t.cfg a and pb = Cfg.rpo_pos t.cfg b in
  let rec climb p = p = pa || (p > pa && climb t.idom.(p)) in
  pa >= 0 && pb >= 0 && climb pb

let idom_at t b =
  let p = Cfg.rpo_pos t.cfg b in
  if p <= 0 then None else Some (Cfg.rpo_order t.cfg).(t.idom.(p))

let dominates t a b =
  match (Cfg.index t.cfg a, Cfg.index t.cfg b) with
  | a, b -> dominates_at t a b
  | exception Not_found -> false

let idom t b =
  match Cfg.index t.cfg b with
  | b -> Option.map (Cfg.label t.cfg) (idom_at t b)
  | exception Not_found -> None
