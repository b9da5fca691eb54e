open Psb_isa
module Machine_model = Psb_machine.Machine_model
module Pcode = Psb_machine.Pcode

type check = Wellformed | Capacity | Recovery | Commit_order

let all_checks = [ Wellformed; Capacity; Recovery; Commit_order ]

let check_name = function
  | Wellformed -> "wellformed"
  | Capacity -> "capacity"
  | Recovery -> "recovery"
  | Commit_order -> "commit-order"

let pp_check ppf c = Format.pp_print_string ppf (check_name c)

type loc = { region : Label.t; bundle : int option; slot : int option }
type violation = { check : check; loc : loc; message : string }

let pp_loc ppf l =
  Label.pp ppf l.region;
  match (l.bundle, l.slot) with
  | Some b, Some s -> Format.fprintf ppf "[%d.%d]" b s
  | Some b, None -> Format.fprintf ppf "[%d]" b
  | None, _ -> ()

let pp_violation ppf v =
  Format.fprintf ppf "%a at %a: %s" pp_check v.check pp_loc v.loc v.message

type report = {
  regions : int;
  bundles : int;
  slots : int;
  conds : int;
  writer_pairs : int;
  sb_demand : int;
  violations : violation list;
}

let ok r = r.violations = []

(* The analysis reasons in issue cycles relative to the region start:
   bundle [b] issues at cycle [b] (stalls delay all later events
   uniformly, so relative arithmetic is exact), an op of latency [l]
   issued at [b] writes back at step 1 of cycle [b + l], and a condition
   set at [s] is applied to the CCR at step 2 of cycle [s + l] — visible
   to issue/exit evaluation from cycle [s + l] and to writeback-time
   evaluation from cycle [s + l + 1].  [never] stands for "no cycle":
   the condition is unset (or multiply set) in the region. *)
let never = max_int / 4

(* One per-region accumulator so every violation carries its location. *)
type ctx = {
  name : Label.t;
  mutable viols : violation list;
  mutable conds : int;
  mutable pairs : int;
  mutable sb_demand : int;
}

let add ctx check ?bundle ?slot fmt =
  Format.kasprintf
    (fun message ->
      ctx.viols <-
        { check; loc = { region = ctx.name; bundle; slot }; message }
        :: ctx.viols)
    fmt

(* A register writer, in flattened slot order. *)
type writer = {
  wb_bundle : int;
  wb_slot : int;
  wb_pred : Pred.t;
  wb : int;  (** writeback cycle *)
  rez : int;  (** cycle the predicate's last condition becomes available *)
}

let verify_region ~single_shadow machine (r : Pcode.region) =
  let ctx =
    { name = r.Pcode.name; viols = []; conds = 0; pairs = 0; sb_demand = 0 }
  in
  let ccr = Machine_model.ccr_size machine in
  let slots =
    Array.to_list r.Pcode.code
    |> List.mapi (fun b bundle -> List.mapi (fun s slot -> (b, s, slot)) bundle)
    |> List.concat
  in
  (* ----- condition definitions (Setc slots) ----- *)
  let defs : (int, (int * int * int) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b, s, slot) ->
      match slot with
      | Pcode.Op { Pcode.op; pred; _ } -> (
          match Instr.cond_def op with
          | None -> ()
          | Some c ->
              let lat = Machine_model.latency machine op in
              let prev =
                Option.value (Hashtbl.find_opt defs (Cond.index c)) ~default:[]
              in
              Hashtbl.replace defs (Cond.index c) (prev @ [ (b, s, lat) ]);
              if Cond.index c >= ccr then
                add ctx Wellformed ~bundle:b ~slot:s
                  "condition %a is outside the CCR (%d entries)" Cond.pp c ccr;
              if not (Pred.is_always pred) then
                add ctx Wellformed ~bundle:b ~slot:s
                  "condition-set instruction for %a is predicated (%a) — \
                   Setc must issue under alw"
                  Cond.pp c Pred.pp pred)
      | Pcode.Exit _ -> ())
    slots;
  ctx.conds <- Hashtbl.length defs;
  (* [avail c]: first cycle at which issue-time predicate evaluation sees
     [c] specified. *)
  let avail c =
    match Hashtbl.find_opt defs (Cond.index c) with
    | Some [ (b, _, lat) ] -> b + lat
    | _ -> never
  in
  let resolve p = Pred.fold_conds (fun c _ acc -> max acc (avail c)) p 0 in
  (* ----- predicate well-formedness ----- *)
  let reported_missing = Hashtbl.create 4 in
  let check_pred_conds b s slot =
    let p = Pcode.slot_pred slot in
    (* The mask answers the CCR-width question for the whole predicate at
       once; the per-condition scan below only has to name offenders when
       it says no. *)
    let fits = Pred.fits ~width:ccr p in
    Pred.iter_conds
      (fun c _ ->
        if (not fits) && Cond.index c >= ccr then
          add ctx Wellformed ~bundle:b ~slot:s
            "predicate %a reads %a, outside the CCR (%d entries)" Pred.pp p
            Cond.pp c ccr;
        match Hashtbl.find_opt defs (Cond.index c) with
        | Some [ _ ] -> ()
        | Some ((db, ds, _) :: _ :: _ ) ->
            if not (Hashtbl.mem reported_missing (Cond.index c)) then begin
              Hashtbl.add reported_missing (Cond.index c) ();
              add ctx Wellformed ~bundle:db ~slot:ds
                "condition %a is set more than once — condition registers \
                 are write-once within a region"
                Cond.pp c
            end
        | Some [] | None ->
            if not (Hashtbl.mem reported_missing (Cond.index c)) then begin
              Hashtbl.add reported_missing (Cond.index c) ();
              add ctx Wellformed ~bundle:b ~slot:s
                "predicate %a reads %a, which no Setc in this region writes \
                 — it can never resolve"
                Pred.pp p Cond.pp c
            end)
      p
  in
  List.iter (fun (b, s, slot) -> check_pred_conds b s slot) slots;
  (* ----- per-slot issue-time checks ----- *)
  let max_spec = Machine_model.max_spec_conds machine in
  List.iter
    (fun (b, s, slot) ->
      let pred = Pcode.slot_pred slot in
      (* speculation degree: conditions still unspecified when the bundle
         issues; the CCR match hardware tracks at most [max_spec_conds] *)
      let unresolved = Pred.count_conds (fun c -> avail c > b) pred in
      if unresolved > max_spec then
        add ctx Capacity ~bundle:b ~slot:s
          "predicate %a carries %d unresolved conditions at issue — the \
           machine speculates past at most %d"
          Pred.pp pred unresolved max_spec;
      match slot with
      | Pcode.Exit _ ->
          (* exits evaluate against the live CCR when their bundle issues:
             every condition must already be specified *)
          Pred.iter_conds
            (fun c _ ->
              let a = avail c in
              if a > b && a < never then
                add ctx Wellformed ~bundle:b ~slot:s
                  "exit reads %a, specified no earlier than cycle %d but \
                   evaluated at cycle %d"
                  Cond.pp c a b)
            pred;
          (* an exit that fires while a condition write is in flight loses
             the write: the machine raises a machine error on this *)
          Hashtbl.iter
            (fun ci ds ->
              match ds with
              | [ (db, _, lat) ] when db <= b && b < db + lat ->
                  add ctx Wellformed ~bundle:b ~slot:s
                    "exit can fire while the write to %a (set at bundle %d, \
                     latency %d) is still pending"
                    Cond.pp (Cond.make ci) db lat
              | _ -> ())
            defs
      | Pcode.Op { Pcode.op; _ } -> (
          (* recovery soundness: anything that can issue while its
             predicate is unspecified may be re-executed in recovery mode
             and must be idempotent-or-squashed — register writes, loads
             and stores are buffered; an Out is externally visible the
             cycle it executes *)
          match op with
          | Instr.Out _ when resolve pred > b ->
              add ctx Recovery ~bundle:b ~slot:s
                "output instruction can issue while %a is unspecified — its \
                 effect is neither buffered nor squashable in recovery mode"
                Pred.pp pred
          | _ -> ()))
    slots;
  (* ----- shadow-register capacity and commit order ----- *)
  let writers : (Reg.t, writer list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b, s, slot) ->
      match slot with
      | Pcode.Op { Pcode.op; pred; _ } ->
          List.iter
            (fun reg ->
              let w =
                {
                  wb_bundle = b;
                  wb_slot = s;
                  wb_pred = pred;
                  wb = b + Machine_model.latency machine op;
                  rez = resolve pred;
                }
              in
              let prev = Option.value (Hashtbl.find_opt writers reg) ~default:[] in
              Hashtbl.replace writers reg (prev @ [ w ]))
            (Instr.defs op)
      | Pcode.Exit _ -> ())
    slots;
  let shadow_cap = Machine_model.shadow_capacity ~single_shadow machine in
  let rec pairwise reg = function
    | [] -> ()
    | i :: rest ->
        List.iter
          (fun j ->
            ctx.pairs <- ctx.pairs + 1;
            if Pred.disjoint i.wb_pred j.wb_pred then begin
              (* mutually exclusive writers: only shadow contention can go
                 wrong.  [i] occupies the shadow entry from its writeback
                 until its predicate resolves; a second speculative
                 writeback before that demands a second shadow version. *)
              if
                shadow_cap = 1 && i.rez >= i.wb && j.rez >= j.wb
                && j.wb < i.rez
              then
                add ctx Capacity ~bundle:j.wb_bundle ~slot:j.wb_slot
                  "second speculative version of %a demanded at cycle %d \
                   while the write from %d.%d occupies its shadow register \
                   until cycle %d"
                  Reg.pp reg j.wb i.wb_bundle i.wb_slot i.rez
            end
            else begin
              (* possibly-both-true writers must retire in program order *)
              if j.wb < i.wb then
                add ctx Commit_order ~bundle:j.wb_bundle ~slot:j.wb_slot
                  "write to %a retires at cycle %d, before the \
                   program-order-earlier write from %d.%d retires at %d"
                  Reg.pp reg j.wb i.wb_bundle i.wb_slot i.wb;
              (* if [i]'s value is parked speculative, it commits from the
                 shadow when its predicate resolves; a later write landing
                 at or before that commit is overwritten by the stale
                 value.  Exemption: when either writer is unpredicated the
                 pair is the join-duplication select idiom (4.2.2) — the
                 predicated duplicate of a post-join instruction commits
                 over the always-path copy, and the commit IS the select.
                 This mirrors exactly when Depgraph emits a commit-order
                 hazard edge. *)
              if
                (not (Pred.is_always i.wb_pred))
                && (not (Pred.is_always j.wb_pred))
                && (not (Pred.equal i.wb_pred j.wb_pred))
                && i.rez >= i.wb && i.rez < never && j.wb <= i.rez
              then
                add ctx Commit_order ~bundle:j.wb_bundle ~slot:j.wb_slot
                  "write to %a at cycle %d can be overwritten when the \
                   buffered speculative write from %d.%d commits at cycle \
                   %d"
                  Reg.pp reg j.wb i.wb_bundle i.wb_slot i.rez
            end)
          rest;
        pairwise reg rest
  in
  Hashtbl.iter pairwise writers;
  (* ----- store order and store-buffer occupancy ----- *)
  let stores =
    List.filter_map
      (fun (b, s, slot) ->
        match slot with
        | Pcode.Op { Pcode.op = Instr.Store { base; off; _ } as op; pred; _ }
          ->
            Some
              ( (base, off),
                {
                  wb_bundle = b;
                  wb_slot = s;
                  wb_pred = pred;
                  wb = b + Machine_model.latency machine op;
                  rez = resolve pred;
                } )
        | _ -> None)
      slots
  in
  let base_redefined_between i j =
    (* conservative: any same-region write to the base register between
       the two stores makes the address comparison meaningless *)
    let base = fst (fst i) in
    let lo = (snd i).wb_bundle and hi = (snd j).wb_bundle in
    List.exists
      (fun (b, _, slot) ->
        b >= lo && b <= hi
        &&
        match slot with
        | Pcode.Op { Pcode.op; _ } ->
            List.exists (Reg.equal base) (Instr.defs op)
        | Pcode.Exit _ -> false)
      slots
  in
  let rec store_pairs = function
    | [] -> ()
    | i :: rest ->
        List.iter
          (fun j ->
            let (bi, oi) = fst i and (bj, oj) = fst j in
            if
              Reg.equal bi bj && oi = oj
              && (not (Pred.disjoint (snd i).wb_pred (snd j).wb_pred))
              && (not (base_redefined_between i j))
              && (snd j).wb < (snd i).wb
            then
              add ctx Commit_order ~bundle:(snd j).wb_bundle
                ~slot:(snd j).wb_slot
                "store to mem[%a%+d] enters the store buffer at cycle %d, \
                 before the program-order-earlier store from %d.%d enters \
                 at %d"
                Reg.pp bj oj (snd j).wb (snd i).wb_bundle (snd i).wb_slot
                (snd i).wb)
          rest;
        store_pairs rest
  in
  store_pairs stores;
  (* worst-case occupancy: entries append at writeback (stores share one
     latency, so appends are FIFO in slot order), become drainable when
     both appended and resolved, and leave head-first through
     [dcache_ports] per cycle.  The all-true resolution path realises
     this bound, so exceeding [sb_capacity] is reachable demand. *)
  let entries = List.map snd stores in
  let n = List.length entries in
  if n > 0 then begin
    let append = Array.of_list (List.map (fun w -> w.wb) entries) in
    let rel =
      Array.of_list (List.map (fun w -> max w.wb (min w.rez never)) entries)
    in
    let ports = max 1 (Machine_model.dcache_ports machine) in
    let free = Array.make n 0 in
    for k = 0 to n - 1 do
      let f = rel.(k) in
      let f = if k > 0 then max f free.(k - 1) else f in
      let f = if k >= ports then max f (free.(k - ports) + 1) else f in
      free.(k) <- f
    done;
    let cap = Machine_model.sb_capacity machine in
    let worst = ref 0 and worst_k = ref 0 in
    for k = 0 to n - 1 do
      let occ = ref 0 in
      for j = 0 to k do
        if free.(j) >= append.(k) then incr occ
      done;
      if !occ > !worst then begin
        worst := !occ;
        worst_k := k
      end
    done;
    ctx.sb_demand <- !worst;
    if !worst > cap then begin
      let w = List.nth entries !worst_k in
      add ctx Capacity ~bundle:w.wb_bundle ~slot:w.wb_slot
        "worst-case store-buffer occupancy reaches %d entries at cycle %d \
         — capacity is %d"
        !worst append.(!worst_k) cap
    end
  end;
  ctx

let run ?(single_shadow = true) machine (code : Pcode.t) =
  let order = Hashtbl.create 8 in
  List.iteri
    (fun i (r : Pcode.region) -> Hashtbl.replace order r.Pcode.name i)
    code.Pcode.regions;
  let ctxs =
    List.map (verify_region ~single_shadow machine) code.Pcode.regions
  in
  let violations =
    List.concat_map (fun c -> List.rev c.viols) ctxs
    |> List.stable_sort (fun a b ->
           let key v =
             ( Option.value (Hashtbl.find_opt order v.loc.region) ~default:0,
               Option.value v.loc.bundle ~default:max_int,
               Option.value v.loc.slot ~default:max_int )
           in
           compare (key a) (key b))
  in
  {
    regions = Pcode.num_regions code;
    bundles = Pcode.num_bundles code;
    slots = Pcode.num_slots code;
    conds = List.fold_left (fun acc c -> acc + c.conds) 0 ctxs;
    writer_pairs = List.fold_left (fun acc c -> acc + c.pairs) 0 ctxs;
    sb_demand = List.fold_left (fun acc c -> max acc c.sb_demand) 0 ctxs;
    violations;
  }

let pp ppf r =
  Format.fprintf ppf
    "%s: %d region%s, %d bundles, %d slots, %d conds, %d writer pairs, \
     sb demand %d"
    (if ok r then "ok" else "FAIL")
    r.regions
    (if r.regions = 1 then "" else "s")
    r.bundles r.slots r.conds r.writer_pairs r.sb_demand;
  List.iter (fun v -> Format.fprintf ppf "@.  %a" pp_violation v) r.violations

let to_json r =
  let module J = Psb_obs.Json in
  J.obj
    [
      ("ok", J.Bool (ok r));
      ("regions", J.Int r.regions);
      ("bundles", J.Int r.bundles);
      ("slots", J.Int r.slots);
      ("conds", J.Int r.conds);
      ("writer_pairs", J.Int r.writer_pairs);
      ("sb_demand", J.Int r.sb_demand);
      ( "violations",
        J.List
          (List.map
             (fun v ->
               J.obj
                 [
                   ("check", J.String (check_name v.check));
                   ("region", J.String (Label.name v.loc.region));
                   ( "bundle",
                     match v.loc.bundle with
                     | Some b -> J.Int b
                     | None -> J.Null );
                   ( "slot",
                     match v.loc.slot with Some s -> J.Int s | None -> J.Null
                   );
                   ("message", J.String v.message);
                 ])
             r.violations) );
    ]

let observe_metrics r m =
  let open Psb_obs.Metrics in
  inc (counter m (if ok r then "verify_passes" else "verify_failures"));
  inc (counter m "verify_regions") ~by:r.regions;
  inc (counter m "verify_slots") ~by:r.slots;
  List.iter
    (fun c ->
      let n =
        List.length (List.filter (fun v -> v.check = c) r.violations)
      in
      inc (counter m "verify_violations" ~labels:[ ("check", check_name c) ])
        ~by:n)
    all_checks
