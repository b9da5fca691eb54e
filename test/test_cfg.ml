(* Tests of the CFG layer: graph construction, dominance, liveness, loops,
   branch prediction. *)

open Psb_isa
open Psb_cfg

let reg = Reg.make
let lbl = Label.make
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Diamond with a loop around it:

        entry
          |
        head <------+
        /  \        |
      then  else    |
        \  /        |
        join -------+ (backedge while c1)
          |
        exit(halt)
*)
let diamond_loop =
  let cmp d op a b = Instr.Cmp { op; dst = reg d; a; b } in
  let add d a b = Instr.Alu { op = Opcode.Add; dst = reg d; a; b } in
  let rr i = Operand.reg (reg i) in
  let im i = Operand.imm i in
  Program.make ~entry:(lbl "entry")
    [
      Program.block (lbl "entry")
        [ Instr.Mov { dst = reg 1; src = im 0 }; Instr.Mov { dst = reg 9; src = im 3 } ]
        (Instr.Jmp (lbl "head"));
      Program.block (lbl "head")
        [ cmp 4 Opcode.Lt (rr 1) (im 2) ]
        (Instr.Br { src = reg 4; if_true = lbl "then"; if_false = lbl "else" });
      Program.block (lbl "then") [ add 2 (rr 2) (im 10) ] (Instr.Jmp (lbl "join"));
      Program.block (lbl "else") [ add 2 (rr 2) (im 100) ] (Instr.Jmp (lbl "join"));
      Program.block (lbl "join")
        [ add 1 (rr 1) (im 1); cmp 5 Opcode.Lt (rr 1) (rr 9) ]
        (Instr.Br { src = reg 5; if_true = lbl "head"; if_false = lbl "exit" });
      Program.block (lbl "exit") [ Instr.Out (rr 2) ] Instr.Halt;
    ]

let cfg = Cfg.of_program diamond_loop
let dom = Dominance.compute cfg

let test_cfg_structure () =
  check_int "blocks" 6 (Cfg.num_blocks cfg);
  Alcotest.(check (list string)) "succs of head" [ "then"; "else" ]
    (Cfg.succs cfg (lbl "head"));
  check_int "preds of join" 2 (List.length (Cfg.preds cfg (lbl "join")));
  check_int "preds of head" 2 (List.length (Cfg.preds cfg (lbl "head")));
  Alcotest.(check (list string)) "exits" [ "exit" ] (Cfg.exits cfg);
  check_bool "rpo starts at entry" true
    (List.hd (Cfg.rpo cfg) = lbl "entry")

let test_dominance () =
  check_bool "entry dom all" true (Dominance.dominates dom (lbl "entry") (lbl "join"));
  check_bool "head dom join" true (Dominance.dominates dom (lbl "head") (lbl "join"));
  check_bool "then not dom join" false
    (Dominance.dominates dom (lbl "then") (lbl "join"));
  check_bool "reflexive" true (Dominance.dominates dom (lbl "join") (lbl "join"));
  check_bool "idom of join is head" true
    (Dominance.idom dom (lbl "join") = Some (lbl "head"))

let test_liveness () =
  let live = Liveness.compute cfg in
  (* r1 and r2 are live around the loop; r9 live from entry to join. *)
  check_bool "r1 live into head" true
    (Reg.Set.mem (reg 1) (Liveness.live_in live (lbl "head")));
  check_bool "r2 live into exit" true
    (Reg.Set.mem (reg 2) (Liveness.live_in live (lbl "exit")));
  check_bool "r9 live out of then" true
    (Reg.Set.mem (reg 9) (Liveness.live_out live (lbl "then")));
  check_bool "r2 dead after exit out" true
    (Reg.Set.is_empty (Liveness.live_out live (lbl "exit")));
  (* A fresh dead register exists at entry of then. *)
  (match Liveness.dead_at_entry live (lbl "then") ~avoid:Reg.Set.empty ~max_reg:9 with
  | Some r -> check_bool "dead reg not live" true
      (not (Reg.Set.mem r (Liveness.live_in live (lbl "then"))))
  | None -> Alcotest.fail "expected a dead register")

let test_live_before () =
  let live = Liveness.compute cfg in
  (* In join: [add r1; setc c1]; before index 0, r1 is live (used). *)
  let s = Liveness.live_before live (lbl "join") 0 in
  check_bool "r1 live before add" true (Reg.Set.mem (reg 1) s)

let test_loops () =
  let loops = Loops.natural_loops cfg dom in
  check_int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check_bool "head is head" true (Label.equal l.Loops.head (lbl "head"));
  check_bool "join in body" true (Loops.in_loop l (lbl "join"));
  check_bool "then in body" true (Loops.in_loop l (lbl "then"));
  check_bool "entry not in body" false (Loops.in_loop l (lbl "entry"));
  check_bool "exit not in body" false (Loops.in_loop l (lbl "exit"))

let test_branch_predict_profile () =
  let mem = Memory.create ~size:16 in
  let res = Interp.run ~regs:[] ~mem diamond_loop in
  let trace = Trace.of_result diamond_loop res in
  let bp = Branch_predict.of_trace cfg trace in
  (* r1 = 0,1,2: head's c0 = r1<2 is true twice, false once → predict true *)
  check_bool "head predicted taken" true (Branch_predict.predict bp (lbl "head"));
  check_bool "confidence sensible" true
    (Branch_predict.confidence bp (lbl "head") >= 0.5);
  let p_then = Branch_predict.edge_probability bp (lbl "head") (lbl "then") in
  let p_else = Branch_predict.edge_probability bp (lbl "head") (lbl "else") in
  check_bool "probabilities sum to 1" true (abs_float (p_then +. p_else -. 1.0) < 1e-9)

let test_branch_predict_heuristic () =
  let bp = Branch_predict.heuristic cfg dom in
  (* join -> head is a backedge: predicted taken. *)
  check_bool "backedge predicted" true (Branch_predict.predict bp (lbl "join"))

(* The profile's per-branch counts against a recount over the
   interpreter's block trace: the fraction of a branch block's
   successors that are its [if_true] target. *)
let prop_taken_fraction_recount =
  QCheck.Test.make ~name:"taken fraction = block-trace recount" ~count:60
    Gen_programs.arb_program (fun g ->
      let program = g.Gen_programs.program in
      let res =
        Interp.run ~regs:Gen_programs.regs ~mem:(Gen_programs.make_mem g)
          program
      in
      let trace = Trace.of_result program res in
      let recount l =
        let rec go taken total = function
          | b1 :: (b2 :: _ as rest) ->
              let taken, total =
                match (Program.find program b1).Program.term with
                | Instr.Br { if_true; _ } when Label.equal b1 l ->
                    ((if Label.equal b2 if_true then taken + 1 else taken), total + 1)
                | _ -> (taken, total)
              in
              go taken total rest
          | [ _ ] | [] ->
              if total = 0 then None
              else Some (float_of_int taken /. float_of_int total)
        in
        let bs = Array.of_list program.Program.blocks in
        go 0 0
          (Array.to_list
             (Array.map (fun i -> bs.(i).Program.label) res.Interp.block_trace))
      in
      List.for_all
        (fun (b : Program.block) ->
          Trace.taken_fraction trace b.Program.label = recount b.Program.label)
        program.Program.blocks)

(* ---------- the indexed front end against its label-set oracle ----------

   For a program: the CFG's reverse post-order and every block's
   predecessors, [dominates] on every pair of blocks, [idom] per block,
   the loop heads (as a list and as [Loops.heads] flags) and the natural
   loops' bodies, each equal to [Dominance_oracle]'s, order included.
   [None] when all agree, else the first disagreement. *)
let oracle_disagreement program =
  let cfg = Cfg.of_program program in
  let dom = Dominance.compute cfg in
  let o = Dominance_oracle.compute program in
  let labels = Program.labels program in
  let names ls = String.concat "," (List.map Label.name ls) in
  let opt = function Some l -> Label.name l | None -> "-" in
  let first f xs = List.find_map f xs in
  let heads = Loops.heads cfg dom in
  let loops =
    List.map
      (fun (l : Loops.loop) -> (l.Loops.head, Label.Set.elements l.Loops.body))
      (Loops.natural_loops cfg dom)
  and oracle_loops =
    List.map
      (fun (h, body) -> (h, Label.Set.elements body))
      (Dominance_oracle.natural_loops o)
  in
  if Cfg.rpo cfg <> Dominance_oracle.rpo o then
    Some
      (Printf.sprintf "rpo [%s], oracle [%s]" (names (Cfg.rpo cfg))
         (names (Dominance_oracle.rpo o)))
  else
    first
      (fun f -> f ())
      [
        (fun () ->
          first
            (fun l ->
              if Cfg.preds cfg l = Dominance_oracle.preds o l then None
              else
                Some
                  (Printf.sprintf "preds %s: [%s], oracle [%s]" l
                     (names (Cfg.preds cfg l))
                     (names (Dominance_oracle.preds o l))))
            labels);
        (fun () ->
          first
            (fun l ->
              if Dominance.idom dom l = Dominance_oracle.idom o l then None
              else
                Some
                  (Printf.sprintf "idom %s: %s, oracle %s" l
                     (opt (Dominance.idom dom l))
                     (opt (Dominance_oracle.idom o l))))
            labels);
        (fun () ->
          first
            (fun a ->
              first
                (fun b ->
                  let d = Dominance.dominates dom a b in
                  if d = Dominance_oracle.dominates o a b then None
                  else Some (Printf.sprintf "dominates %s %s: %b, oracle %b" a b d (not d)))
                labels)
            labels);
        (fun () ->
          let lh = Loops.loop_heads cfg dom and oh = Dominance_oracle.loop_heads o in
          if lh = oh then None
          else Some (Printf.sprintf "loop heads [%s], oracle [%s]" (names lh) (names oh)));
        (fun () ->
          first
            (fun l ->
              let flagged = heads.(Cfg.index cfg l)
              and head = List.mem l (Dominance_oracle.loop_heads o) in
              if flagged = head then None
              else Some (Printf.sprintf "heads %s: %b, oracle %b" l flagged head))
            labels);
        (fun () ->
          if loops = oracle_loops then None
          else
            Some
              (String.concat "; "
                 (List.map
                    (fun (h, body) -> Printf.sprintf "%s:{%s}" h (names body))
                    loops)
              ^ " vs oracle "
              ^ String.concat "; "
                  (List.map
                     (fun (h, body) -> Printf.sprintf "%s:{%s}" h (names body))
                     oracle_loops)));
      ]

let oracle_prop name arb program_of =
  QCheck.Test.make ~name ~count:150 arb (fun x ->
      match oracle_disagreement (program_of x) with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "%s" d)

(* Arbitrary control flow over up to 12 blocks: any block may jump or
   branch to any other (the entry included), so the graphs are
   irreducible, have unreachable blocks and branches with both arms on
   one block, which the structured generator never draws. *)
let arb_cfg =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun n ->
      let target = map (Printf.sprintf "b%d") (int_bound (n - 1)) in
      let term =
        frequency
          [
            (1, return Instr.Halt);
            (3, map (fun l -> Instr.Jmp l) target);
            ( 5,
              map2
                (fun t f -> Instr.Br { src = reg 1; if_true = t; if_false = f })
                target target );
          ]
      in
      map
        (fun terms ->
          Program.make ~entry:(lbl "b0")
            (List.mapi (fun i t -> Program.block (Printf.sprintf "b%d" i) [] t) terms))
        (list_repeat n term))
  in
  QCheck.make ~print:(Format.asprintf "%a" Program.pp) gen

let nested = { Gen_programs.default_shape with Gen_programs.nesting = 2 }

let prop_oracle_default =
  oracle_prop "generated programs agree with the oracle" (Gen_programs.arb ())
    (fun g -> g.Gen_programs.program)

let prop_oracle_nested =
  oracle_prop "nested programs agree with the oracle"
    (Gen_programs.arb ~shape:nested ())
    (fun g -> g.Gen_programs.program)

let prop_oracle_arbitrary =
  oracle_prop "arbitrary control flow agrees with the oracle" arb_cfg Fun.id

let test_oracle_suite () =
  List.iter
    (fun (name, program) ->
      Alcotest.(check (option string)) name None (oracle_disagreement program))
    (("diamond_loop", diamond_loop)
    :: List.map
         (fun (w : Psb_workloads.Dsl.t) ->
           (w.Psb_workloads.Dsl.name, w.Psb_workloads.Dsl.program))
         Psb_workloads.Suite.all)

let () =
  Alcotest.run "cfg"
    [
      ( "cfg",
        [ Alcotest.test_case "structure" `Quick test_cfg_structure ] );
      ( "dominance",
        [
          Alcotest.test_case "dominators" `Quick test_dominance;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "live sets" `Quick test_liveness;
          Alcotest.test_case "live before" `Quick test_live_before;
        ] );
      ("loops", [ Alcotest.test_case "natural loops" `Quick test_loops ]);
      ( "oracle",
        [
          Alcotest.test_case "suite agrees with the oracle" `Quick test_oracle_suite;
          Qc.to_alcotest prop_oracle_default;
          Qc.to_alcotest prop_oracle_nested;
          Qc.to_alcotest prop_oracle_arbitrary;
        ] );
      ( "branch-predict",
        [
          Alcotest.test_case "profile" `Quick test_branch_predict_profile;
          Alcotest.test_case "heuristic" `Quick test_branch_predict_heuristic;
          Qc.to_alcotest prop_taken_fraction_recount;
        ] );
    ]
