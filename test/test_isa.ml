(* Tests of the ISA layer: predicates (with qcheck properties), memory
   faults, the reference interpreter and its cycle model, and trace
   analysis. *)

open Psb_isa

let cond = Cond.make
let reg = Reg.make
let lbl = Label.make
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- Pred ---------- *)

let test_pred_always () =
  check_bool "always is true" true
    (Pred.eval Pred.always (fun _ -> Pred.U) = Pred.True);
  check_bool "is_always" true (Pred.is_always Pred.always);
  check_int "arity" 0 (Pred.arity Pred.always)

let test_pred_eval () =
  let p = Pred.of_list [ (cond 0, true); (cond 2, false) ] in
  let mk c0 c2 c =
    match Cond.index c with 0 -> c0 | 2 -> c2 | _ -> Pred.U
  in
  check_bool "both needed" true (Pred.eval p (mk Pred.T Pred.U) = Pred.Unspec);
  check_bool "true" true (Pred.eval p (mk Pred.T Pred.F) = Pred.True);
  check_bool "false" true (Pred.eval p (mk Pred.T Pred.T) = Pred.False);
  check_bool "paper rule: unspec wins" true
    (Pred.eval p (mk Pred.U Pred.T) = Pred.Unspec)

let test_pred_contradiction () =
  Alcotest.check_raises "contradictory literal"
    (Invalid_argument "Pred.conj: contradictory literal on c1") (fun () ->
      ignore (Pred.of_list [ (cond 1, true); (cond 1, false) ]))

(* The last condition of the word is the sign bit, and the literal walk
   must stop after it. The next condition is refused. *)
let test_pred_word_boundary () =
  let top = Pred.word_bits - 1 in
  let p = Pred.conj Pred.always (cond top) false in
  check_bool "top condition kept" true (Pred.requires p (cond top) = Some false);
  Pred.iter_conds
    (fun c v ->
      if c <> top || v then Alcotest.failf "walk reached %a=%b" Cond.pp c v)
    p;
  Alcotest.(check string) "top condition printed"
    (Printf.sprintf "!c%d" top) (Format.asprintf "%a" Pred.pp p);
  Alcotest.check_raises "first condition past the word"
    (Invalid_argument
       (Printf.sprintf "Pred.conj: c%d is past the predicate word (c0..c%d)"
          Pred.word_bits top))
    (fun () -> ignore (Pred.conj p (cond Pred.word_bits) true))

let test_pred_implies_disjoint () =
  let p = Pred.of_list [ (cond 0, true); (cond 1, true) ] in
  let q = Pred.of_list [ (cond 0, true) ] in
  let r = Pred.of_list [ (cond 0, false) ] in
  check_bool "p implies q" true (Pred.implies p q);
  check_bool "q not implies p" false (Pred.implies q p);
  check_bool "everything implies always" true (Pred.implies q Pred.always);
  check_bool "disjoint" true (Pred.disjoint p r);
  check_bool "not disjoint" false (Pred.disjoint p q)

let test_pred_vector () =
  let p = Pred.of_list [ (cond 0, true); (cond 1, false); (cond 2, true) ] in
  Alcotest.(check string) "encoding" "101X" (Pred.to_vector ~width:4 p);
  Alcotest.(check string) "don't care" "1XXX"
    (Pred.to_vector ~width:4 (Pred.of_list [ (cond 0, true) ]))

(* qcheck generators *)

let gen_pred =
  QCheck.Gen.(
    list_size (int_bound 4) (pair (int_bound 5) bool) >|= fun lits ->
    List.fold_left
      (fun p (c, v) ->
        match Pred.conj p (cond c) v with p' -> p' | exception _ -> p)
      Pred.always lits)

let arb_pred = QCheck.make ~print:(Format.asprintf "%a" Pred.pp) gen_pred

let gen_ccr_fn =
  QCheck.Gen.(
    array_size (return 6) (oneofl [ Pred.T; Pred.F; Pred.U ]) >|= fun arr c ->
    arr.(Cond.index c mod 6))

let prop_eval_monotone =
  (* Specifying more conditions never flips True<->False; it can only move
     Unspec to a specified value. *)
  QCheck.Test.make ~name:"pred eval is monotone under specification"
    ~count:500
    (QCheck.pair arb_pred (QCheck.make gen_ccr_fn))
    (fun (p, lookup) ->
      let v1 = Pred.eval p lookup in
      (* specify all unknowns as true *)
      let lookup2 c = match lookup c with Pred.U -> Pred.T | v -> v in
      let v2 = Pred.eval p lookup2 in
      match (v1, v2) with
      | Pred.True, Pred.True | Pred.False, Pred.False -> true
      | Pred.Unspec, _ -> true
      | _ -> false)

let prop_implies_semantics =
  QCheck.Test.make ~name:"implies is semantic implication" ~count:500
    (QCheck.triple arb_pred arb_pred (QCheck.make gen_ccr_fn))
    (fun (p, q, lookup) ->
      let lookup c = match lookup c with Pred.U -> Pred.T | v -> v in
      (not (Pred.implies p q))
      || Pred.eval p lookup <> Pred.True
      || Pred.eval q lookup = Pred.True)

let prop_disjoint_semantics =
  QCheck.Test.make ~name:"disjoint predicates are never both true" ~count:500
    (QCheck.triple arb_pred arb_pred (QCheck.make gen_ccr_fn))
    (fun (p, q, lookup) ->
      let lookup c = match lookup c with Pred.U -> Pred.T | v -> v in
      (not (Pred.disjoint p q))
      || not (Pred.eval p lookup = Pred.True && Pred.eval q lookup = Pred.True))

(* The mask encoding against the literal-map oracle: random literal
   lists over both ends of the word (c0-c7 and the top seven, the last
   being the sign bit) and, now and then, the first condition past it.
   The walk order is checked literal by literal before anything else
   walks the mask, so a walk that runs past the word fails at its first
   extra literal. *)
let prop_pred_matches_oracle =
  let top = Pred.word_bits - 1 in
  let lits =
    let c =
      QCheck.Gen.(
        frequency
          [ (8, int_bound 7); (8, int_range (top - 6) top); (1, return (top + 1)) ])
    in
    QCheck.Gen.(list_size (int_bound 6) (pair c bool))
  in
  let states =
    QCheck.Gen.(array_size (return Pred.word_bits) (oneofl Pred.[ T; F; U ]))
  in
  let print (l1, l2, st, width) =
    let lits l =
      String.concat " " (List.map (fun (c, v) -> Printf.sprintf "c%d=%b" c v) l)
    and ccr =
      String.concat ""
        (Array.to_list
           (Array.map (function Pred.T -> "1" | Pred.F -> "0" | Pred.U -> "X") st))
    in
    Printf.sprintf "p: [%s]  q: [%s]  width %d  ccr %s" (lits l1) (lits l2) width
      ccr
  in
  let result f x =
    match f x with v -> Ok v | exception Invalid_argument m -> Error m
  in
  QCheck.Test.make ~name:"mask encoding = literal-map oracle" ~count:2000
    (QCheck.make ~print
       QCheck.Gen.(quad lits lits states (int_bound (Pred.word_bits + 1))))
    (fun (l1, l2, st, width) ->
      let lookup c = st.(Cond.index c) in
      (* the literals in condition order, streamed: a mismatch ends the
         walk at once *)
      let walks_like p o =
        let rest = ref (Pred_oracle.literals o) in
        Pred.iter_conds
          (fun c v ->
            match !rest with
            | (c', v') :: tl when Cond.equal c c' && v = v' -> rest := tl
            | _ -> QCheck.Test.fail_reportf "walk reached %a=%b" Cond.pp c v)
          p;
        !rest = []
      in
      let unary p o =
        walks_like p o
        && Pred.literals p = Pred_oracle.literals o
        && Pred.fold_conds (fun c v acc -> (c, v) :: acc) p []
           = List.rev (Pred_oracle.literals o)
        && Cond.Set.equal (Pred.conds p) (Pred_oracle.conds o)
        && Pred.is_always p = Pred_oracle.is_always o
        && Pred.arity p = Pred_oracle.arity o
        && List.for_all
             (fun c -> Pred.requires p (cond c) = Pred_oracle.requires o (cond c))
             (List.init (Pred.word_bits + 2) Fun.id)
        && Pred.count_conds (fun c -> lookup c = Pred.U) p
           = Pred_oracle.count_conds (fun c -> lookup c = Pred.U) o
        && List.for_all
             (fun c ->
               match (result (Pred.flip p) c, result (Pred_oracle.flip o) c) with
               | Ok p', Ok o' -> Pred.literals p' = Pred_oracle.literals o'
               | Error m, Error m' -> m = m'
               | Ok _, Error _ | Error _, Ok _ -> false)
             (List.map cond [ 0; 1; top - 1; top ]
             @ List.map fst (Pred_oracle.literals o))
        && Pred.eval p lookup = Pred_oracle.eval o lookup
        && Pred.fits ~width p = Pred_oracle.fits ~width o
        && result (Pred.to_vector ~width) p
           = result (Pred_oracle.to_vector ~width) o
        && Format.asprintf "%a" Pred.pp p = Format.asprintf "%a" Pred_oracle.pp o
      in
      match
        ( (result Pred.of_list l1, result Pred_oracle.of_list l1),
          (result Pred.of_list l2, result Pred_oracle.of_list l2) )
      with
      | (Ok p, Ok o), (Ok q, Ok r) ->
          unary p o && unary q r
          && Pred.implies p q = Pred_oracle.implies o r
          && Pred.implies q p = Pred_oracle.implies r o
          && Pred.disjoint p q = Pred_oracle.disjoint o r
          && Pred.equal p q = Pred_oracle.equal o r
      | (Ok p, Ok o), (Error m, Error m') | (Error m, Error m'), (Ok p, Ok o) ->
          m = m' && unary p o
      | (Error m, Error m'), (Error n, Error n') -> m = m' && n = n'
      | _ -> false)

(* ---------- Opcode ---------- *)

let test_opcode_semantics () =
  check_int "add" 7 (Opcode.eval_alu Opcode.Add 3 4);
  check_int "sub" (-1) (Opcode.eval_alu Opcode.Sub 3 4);
  check_int "mul" 12 (Opcode.eval_alu Opcode.Mul 3 4);
  check_int "div" 3 (Opcode.eval_alu Opcode.Div 13 4);
  check_int "div negative" (-3) (Opcode.eval_alu Opcode.Div (-13) 4);
  check_int "and" 4 (Opcode.eval_alu Opcode.And 12 6);
  check_int "or" 14 (Opcode.eval_alu Opcode.Or 12 6);
  check_int "xor" 10 (Opcode.eval_alu Opcode.Xor 12 6);
  check_int "sll" 24 (Opcode.eval_alu Opcode.Sll 3 3);
  check_int "srl" 3 (Opcode.eval_alu Opcode.Srl 24 3);
  check_int "sra" (-2) (Opcode.eval_alu Opcode.Sra (-8) 2);
  (* shift counts are masked to 6 bits, so a "negative" count is large *)
  check_int "sll masked count" (3 lsl 1) (Opcode.eval_alu Opcode.Sll 3 65);
  Alcotest.check_raises "div by zero"
    (Opcode.Arithmetic_fault "division by zero") (fun () ->
      ignore (Opcode.eval_alu Opcode.Div 1 0));
  check_bool "cmp table" true
    (Opcode.eval_cmp Opcode.Le 3 3
    && Opcode.eval_cmp Opcode.Ge 3 3
    && (not (Opcode.eval_cmp Opcode.Lt 3 3))
    && Opcode.eval_cmp Opcode.Ne 3 4);
  check_bool "only div is unsafe" true
    (Opcode.alu_unsafe Opcode.Div && not (Opcode.alu_unsafe Opcode.Sra))

let test_pred_vector_errors () =
  Alcotest.check_raises "vector width"
    (Invalid_argument "Pred.to_vector: c5 out of CCR width 4") (fun () ->
      ignore (Pred.to_vector ~width:4 (Pred.of_list [ (cond 5, true) ])))

(* ---------- Memory ---------- *)

let test_memory_bounds () =
  let m = Memory.create ~size:16 in
  Memory.write m 3 42;
  check_int "rw" 42 (Memory.read m 3);
  Alcotest.check_raises "negative is fatal" (Memory.Fault (Memory.Out_of_bounds (-1)))
    (fun () -> ignore (Memory.read m (-1)));
  Alcotest.check_raises "past end" (Memory.Fault (Memory.Out_of_bounds 16))
    (fun () -> ignore (Memory.read m 16))

let test_memory_demand () =
  let m = Memory.create_demand ~size:1024 ~unmapped:(128, 256) in
  check_int "mapped region ok" 0 (Memory.read m 10);
  (match Memory.read m 130 with
  | _ -> Alcotest.fail "expected unmapped fault"
  | exception Memory.Fault (Memory.Unmapped 130) -> ());
  check_bool "handler maps" true (Memory.handle_fault m (Memory.Unmapped 130));
  check_int "after mapping" 0 (Memory.read m 130);
  check_bool "fatal not handled" false
    (Memory.handle_fault m (Memory.Out_of_bounds 2000))

let test_memory_page_boundaries () =
  (* the demand range is rounded to page granularity *)
  let m = Memory.create_demand ~size:1024 ~unmapped:(100, 130) in
  (* pages are 64 words: [64..127] and [128..191] intersect [100,130) *)
  (match Memory.read m 70 with
  | _ -> Alcotest.fail "address 70 shares a page with 100: must fault"
  | exception Memory.Fault (Memory.Unmapped 70) -> ());
  (match Memory.read m 190 with
  | _ -> Alcotest.fail "address 190 shares a page with 129: must fault"
  | exception Memory.Fault (Memory.Unmapped 190) -> ());
  check_int "next page is mapped" 0 (Memory.read m 192);
  (* handling one address maps its whole page *)
  check_bool "handled" true (Memory.handle_fault m (Memory.Unmapped 70));
  check_int "same page now readable" 0 (Memory.read m 127);
  (match Memory.read m 128 with
  | _ -> Alcotest.fail "second page still unmapped"
  | exception Memory.Fault (Memory.Unmapped 128) -> ())

(* An empty range unmaps nothing, wherever it sits in its page. *)
let test_memory_demand_empty_range () =
  let m = Memory.create_demand ~size:512 ~unmapped:(10, 10) in
  check_int "word 0 of (10, 10)" 0 (Memory.read m 0);
  check_int "word 10 of (10, 10)" 0 (Memory.read m 10);
  let m = Memory.create_demand ~size:512 ~unmapped:(100, 70) in
  check_bool "nothing of (100, 70) faults" true
    (List.for_all (fun a -> Memory.probe m a = None) (List.init 512 Fun.id))

let test_memory_probe_equal () =
  let m = Memory.create_demand ~size:512 ~unmapped:(64, 128) in
  check_bool "probe unmapped" true (Memory.probe m 70 <> None);
  check_bool "probe ok" true (Memory.probe m 10 = None);
  check_bool "probe oob" true (Memory.probe m 600 <> None);
  let m2 = Memory.copy m in
  Memory.poke m2 10 5;
  check_bool "copy is independent" false (Memory.equal m m2);
  Memory.poke m 10 5;
  check_bool "equal after same writes" true (Memory.equal m m2)

let test_memory_poke_range () =
  let m = Memory.create ~size:16 in
  List.iter
    (fun a ->
      Alcotest.check_raises
        (Printf.sprintf "poke at %d" a)
        (Invalid_argument
           (Printf.sprintf "Memory.poke: address %d outside 0 .. 15" a))
        (fun () -> Memory.poke m a 1))
    [ -1; 16 ];
  check_bool "nothing stored" true (Memory.equal m (Memory.create ~size:16))

(* The flat memory against the hash-table memory it replaced
   ([Memory_oracle]): one random op sequence applied to two memories of
   each, every result and raised fault compared, then every address's
   [peek] and [probe]. Op addresses reach just past both ends; [Poke]
   takes its address modulo the memory's size, since an out-of-range
   poke raises in the flat memory and is stored by the oracle. *)

type mem_spec = { size : int; demand : (int * int) option }

type mem_op =
  | Read of int * int (* memory 0 or 1, address *)
  | Write of int * int * int
  | Probe of int * int
  | Fault_twice of int * int (* read; a fault is handled twice *)
  | Peek of int * int
  | Poke of int * int * int
  | Copy of int (* the other memory becomes a copy of this one *)
  | Fresh of mem_spec (* memory 1 starts again *)
  | Equal

type mem_result =
  | Value of int
  | Faulted of Memory.fault
  | Handled of Memory.fault * bool * bool
  | Probed of Memory.fault option
  | Same of bool
  | Done

module type MEM = sig
  type t

  val create : size:int -> t
  val create_demand : size:int -> unmapped:int * int -> t
  val size : t -> int
  val read : t -> int -> int
  val write : t -> int -> int -> unit
  val probe : t -> int -> Memory.fault option
  val handle_fault : t -> Memory.fault -> bool
  val peek : t -> int -> int
  val poke : t -> int -> int -> unit
  val copy : t -> t
  val equal : t -> t -> bool
end

module Replay (M : MEM) = struct
  let fresh s =
    match s.demand with
    | None -> M.create ~size:s.size
    | Some r -> M.create_demand ~size:s.size ~unmapped:r

  let run spec ops =
    let mems = [| fresh spec; fresh spec |] in
    let access f =
      match f () with v -> Value v | exception Memory.Fault e -> Faulted e
    in
    let step = function
      | Read (i, a) -> access (fun () -> M.read mems.(i) a)
      | Write (i, a, v) ->
          access (fun () ->
              M.write mems.(i) a v;
              v)
      | Probe (i, a) -> Probed (M.probe mems.(i) a)
      | Fault_twice (i, a) -> (
          match M.read mems.(i) a with
          | v -> Value v
          | exception Memory.Fault e ->
              let first = M.handle_fault mems.(i) e in
              Handled (e, first, M.handle_fault mems.(i) e))
      | Peek (i, a) -> Value (M.peek mems.(i) a)
      | Poke (i, a, v) ->
          let m = mems.(i) in
          M.poke m (a mod M.size m) v;
          Done
      | Copy i ->
          mems.(1 - i) <- M.copy mems.(i);
          Done
      | Fresh s ->
          mems.(1) <- fresh s;
          Done
      | Equal -> Same (M.equal mems.(0) mems.(1))
    in
    let results = List.map step ops in
    let final =
      Array.to_list mems
      |> List.concat_map (fun m ->
             List.init (M.size m + 2) (fun k ->
                 [ Value (M.peek m (k - 1)); Probed (M.probe m (k - 1)) ]))
    in
    results @ List.concat final
end

module Flat_replay = Replay (Memory)
module Oracle_replay = Replay (Memory_oracle)

let gen_mem_spec =
  QCheck.Gen.(
    let* size = oneof [ oneofl [ 1; 63; 64; 65; 128; 130 ]; int_range 1 300 ] in
    let range lo hi_of =
      let* lo = lo in
      let+ hi = hi_of lo in
      Some (lo, hi)
    in
    let+ demand =
      frequency
        [
          (2, return None);
          (3, range (int_range 0 size) (fun lo -> int_range lo size)) (* inside *);
          ( 1,
            range (int_range 0 (size - 1)) (fun _ ->
                int_range (size + 1) (size + 200)) )
          (* straddling the end *);
          ( 1,
            range (int_range size (size + 100)) (fun lo -> int_range lo (lo + 100))
          )
          (* past the end *);
          (1, int_range 0 (size + 64) >|= fun a -> Some (a, a)) (* empty *);
        ]
    in
    { size; demand })

let gen_mem_case =
  QCheck.Gen.(
    let* spec = gen_mem_spec in
    let addr = int_range (-2) (spec.size + 2) and which = int_range 0 1 in
    let value = oneof [ return 0; int_range (-50) 50 ] in
    let op =
      frequency
        [
          (4, map2 (fun i a -> Read (i, a)) which addr);
          (4, map3 (fun i a v -> Write (i, a, v)) which addr value);
          (2, map2 (fun i a -> Probe (i, a)) which addr);
          (2, map2 (fun i a -> Fault_twice (i, a)) which addr);
          (2, map2 (fun i a -> Peek (i, a)) which addr);
          (2, map3 (fun i a v -> Poke (i, a, v)) which nat value);
          (1, map (fun i -> Copy i) which);
          (1, map (fun s -> Fresh s) gen_mem_spec);
          (2, return Equal);
        ]
    in
    let+ ops = list_size (int_range 0 60) op in
    (spec, ops))

let pp_mem_spec { size; demand } =
  match demand with
  | None -> Printf.sprintf "create %d" size
  | Some (lo, hi) -> Printf.sprintf "create_demand %d (%d, %d)" size lo hi

let pp_mem_op = function
  | Read (i, a) -> Printf.sprintf "read m%d %d" i a
  | Write (i, a, v) -> Printf.sprintf "write m%d %d %d" i a v
  | Probe (i, a) -> Printf.sprintf "probe m%d %d" i a
  | Fault_twice (i, a) -> Printf.sprintf "fault-twice m%d %d" i a
  | Peek (i, a) -> Printf.sprintf "peek m%d %d" i a
  | Poke (i, a, v) -> Printf.sprintf "poke m%d %d %d" i a v
  | Copy i -> Printf.sprintf "m%d := copy m%d" (1 - i) i
  | Fresh s -> "m1 := " ^ pp_mem_spec s
  | Equal -> "equal"

let prop_memory_matches_oracle =
  QCheck.Test.make ~name:"flat memory = hash-table oracle" ~count:500
    (QCheck.make
       ~print:(fun (spec, ops) ->
         String.concat "; " (pp_mem_spec spec :: List.map pp_mem_op ops))
       gen_mem_case)
    (fun (spec, ops) -> Flat_replay.run spec ops = Oracle_replay.run spec ops)

(* ---------- Interp ---------- *)

(* sum = 10 + 20: straight-line program. *)
let straight_line =
  Program.make ~entry:(lbl "e")
    [
      Program.block (lbl "e")
        [
          Instr.Mov { dst = reg 1; src = Operand.imm 10 };
          Instr.Mov { dst = reg 2; src = Operand.imm 20 };
          Instr.Alu
            { op = Opcode.Add; dst = reg 3; a = Operand.reg (reg 1); b = Operand.reg (reg 2) };
          Instr.Out (Operand.reg (reg 3));
        ]
        Instr.Halt;
    ]

let test_interp_basic () =
  let mem = Memory.create ~size:64 in
  let r = Interp.run ~regs:[] ~mem straight_line in
  check_bool "halted" true (r.Interp.outcome = Interp.Halted);
  Alcotest.(check (list int)) "output" [ 30 ] r.Interp.output;
  check_int "r3" 30 (Reg.Map.find (reg 3) r.Interp.regs);
  (* 4 ops + halt = 5 cycles, no load stalls *)
  check_int "cycles" 5 r.Interp.cycles

let test_interp_load_use_stall () =
  let p =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [
            Instr.Mov { dst = reg 1; src = Operand.imm 0 };
            Instr.Load { dst = reg 2; base = reg 1; off = 0 };
            Instr.Alu
              { op = Opcode.Add; dst = reg 3; a = Operand.reg (reg 2); b = Operand.imm 1 };
          ]
          Instr.Halt;
      ]
  in
  let mem = Memory.create ~size:64 in
  let r = Interp.run ~regs:[] ~mem p in
  (* 3 ops + halt + 1 load-use stall = 5 *)
  check_int "cycles with stall" 5 r.Interp.cycles;
  (* without the dependent use, no stall *)
  let p2 =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [
            Instr.Mov { dst = reg 1; src = Operand.imm 0 };
            Instr.Load { dst = reg 2; base = reg 1; off = 0 };
            Instr.Alu
              { op = Opcode.Add; dst = reg 3; a = Operand.imm 5; b = Operand.imm 1 };
          ]
          Instr.Halt;
      ]
  in
  let r2 = Interp.run ~regs:[] ~mem:(Memory.create ~size:64) p2 in
  check_int "cycles without stall" 4 r2.Interp.cycles

let branchy ~n =
  (* loop: i from n downto 0, accumulate; tests Br/Jmp and trace capture *)
  Program.make ~entry:(lbl "head")
    [
      Program.block (lbl "head")
        [ Instr.Cmp { op = Opcode.Gt; dst = reg 8; a = Operand.reg (reg 1); b = Operand.imm 0 } ]
        (Instr.Br { src = reg 8; if_true = lbl "body"; if_false = lbl "done" });
      Program.block (lbl "body")
        [
          Instr.Alu { op = Opcode.Add; dst = reg 2; a = Operand.reg (reg 2); b = Operand.reg (reg 1) };
          Instr.Alu { op = Opcode.Sub; dst = reg 1; a = Operand.reg (reg 1); b = Operand.imm 1 };
        ]
        (Instr.Jmp (lbl "head"));
      Program.block (lbl "done") [ Instr.Out (Operand.reg (reg 2)) ] Instr.Halt;
    ]
  |> fun p -> (p, [ (reg 1, n); (reg 2, 0) ])

(* A block trace as the labels of the blocks it indexes. *)
let trace_labels (p : Program.t) trace =
  let bs = Array.of_list p.Program.blocks in
  Array.to_list (Array.map (fun i -> bs.(i).Program.label) trace)

let test_interp_loop () =
  let p, regs = branchy ~n:10 in
  let r = Interp.run ~regs ~mem:(Memory.create ~size:16) p in
  Alcotest.(check (list int)) "sum 1..10" [ 55 ] r.Interp.output;
  check_int "head visits" 11
    (List.length
       (List.filter (Label.equal (lbl "head")) (trace_labels p r.Interp.block_trace)))

let test_interp_fatal_fault () =
  let p =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [
            Instr.Mov { dst = reg 1; src = Operand.imm (-8) };
            Instr.Load { dst = reg 2; base = reg 1; off = 0 };
          ]
          Instr.Halt;
      ]
  in
  let r = Interp.run ~regs:[] ~mem:(Memory.create ~size:64) p in
  match r.Interp.outcome with
  | Interp.Fatal (Fault.Mem (Memory.Out_of_bounds -8)) -> ()
  | o -> Alcotest.failf "expected fatal, got %a" Interp.pp_outcome o

let test_interp_recoverable_fault () =
  let p =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [
            Instr.Mov { dst = reg 1; src = Operand.imm 130 };
            Instr.Load { dst = reg 2; base = reg 1; off = 0 };
            Instr.Out (Operand.reg (reg 2));
          ]
          Instr.Halt;
      ]
  in
  let mem = Memory.create_demand ~size:1024 ~unmapped:(128, 256) in
  let r = Interp.run ~regs:[] ~mem p in
  check_bool "halted" true (r.Interp.outcome = Interp.Halted);
  check_int "one fault handled" 1 r.Interp.faults_handled

let test_interp_div_fault () =
  let p =
    Program.make ~entry:(lbl "e")
      [
        Program.block (lbl "e")
          [
            Instr.Alu { op = Opcode.Div; dst = reg 1; a = Operand.imm 1; b = Operand.imm 0 };
          ]
          Instr.Halt;
      ]
  in
  let r = Interp.run ~regs:[] ~mem:(Memory.create ~size:16) p in
  match r.Interp.outcome with
  | Interp.Fatal (Fault.Arith _) -> ()
  | o -> Alcotest.failf "expected arith fault, got %a" Interp.pp_outcome o

(* With the trace off and the decoded kernel, the interpreter's hot
   loop must not allocate per dynamic instruction or per block entered:
   the same count-down loop, which loads a written word and stores one,
   run for 100x the iterations may not cost meaningfully more minor
   words. The trace-on control run pins what a
   recorded trace costs: at least one word per block entered, and, as
   one growable int buffer trimmed once, at most four. It counts all
   allocation, since the buffer soon outgrows the minor heap; the minor
   heap is emptied first, so a collection during the run promotes only
   what the run allocated and the count is exact. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let words_allocated_by f =
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)

let test_interp_no_trace_no_alloc () =
  let program =
    Program.make ~entry:(lbl "head")
      [
        Program.block (lbl "head")
          [
            Instr.Alu
              {
                op = Opcode.Sub;
                dst = reg 1;
                a = Operand.reg (reg 1);
                b = Operand.imm 1;
              };
            Instr.Cmp
              {
                op = Opcode.Gt;
                dst = reg 2;
                a = Operand.reg (reg 1);
                b = Operand.imm 0;
              };
            Instr.Load { dst = reg 3; base = reg 4; off = 5 };
            Instr.Store { src = reg 1; base = reg 4; off = 6 };
          ]
          (Instr.Br { src = reg 2; if_true = lbl "head"; if_false = lbl "done" });
        Program.block (lbl "done") [] Instr.Halt;
      ]
  in
  let decoded = Decoded.of_program program in
  let mem = Memory.create ~size:16 in
  Memory.poke mem 5 9;
  let go ~record_trace n =
    (* the no-allocation guarantee is specific to the flat form, the
       default kernel *)
    Interp.run ~record_trace ~decoded
      ~regs:[ (reg 1, n) ]
      ~mem program
  in
  (* warm up so any one-time setup is off the measurement *)
  ignore (go ~record_trace:false 10);
  let small = minor_words_of (fun () -> ignore (go ~record_trace:false 1_000)) in
  let large =
    minor_words_of (fun () -> ignore (go ~record_trace:false 100_000))
  in
  check_bool
    (Printf.sprintf
       "no per-iteration allocation with the trace off (%.0f -> %.0f words)"
       small large)
    true
    (large -. small < 4096.);
  (* control: with the trace on, allocation does scale with the blocks
     entered — the delta above really is the trace buffer's absence *)
  let blocks = ref 0 in
  let traced =
    words_allocated_by (fun () ->
        let r = go ~record_trace:true 100_000 in
        blocks := Array.length r.Interp.block_trace)
  in
  let untraced =
    words_allocated_by (fun () -> ignore (go ~record_trace:false 100_000))
  in
  let per_block = traced /. float_of_int !blocks in
  check_bool
    (Printf.sprintf "trace-on control allocates per block (%.0f words)" traced)
    true
    (traced -. untraced > float_of_int !blocks);
  check_bool
    (Printf.sprintf "trace-on control: at most 4 words per block (%.2f)"
       per_block)
    true (per_block <= 4.0);
  let r = go ~record_trace:false 5 in
  check_bool "trace suppressed" true (r.Interp.block_trace = [||])

(* ---------- Trace ---------- *)

let test_trace_counts () =
  let p, regs = branchy ~n:4 in
  let r = Interp.run ~regs ~mem:(Memory.create ~size:16) p in
  let t = Trace.of_result p r in
  check_int "head count" 5 (Trace.block_count t (lbl "head"));
  check_int "body count" 4 (Trace.block_count t (lbl "body"));
  check_int "edge head->body" 4 (Trace.edge_count t ~src:(lbl "head") ~dst:(lbl "body"));
  check_int "dyn branches" 5 (Trace.dynamic_branches t);
  check_bool "predicts taken" true (Trace.predict t (lbl "head"));
  check_bool "taken fraction" true
    (Trace.taken_fraction t (lbl "head") = Some 0.8)

let test_trace_successive () =
  let p, regs = branchy ~n:9 in
  let r = Interp.run ~regs ~mem:(Memory.create ~size:16) p in
  let t = Trace.of_result p r in
  (* 10 dynamic branches: 9 taken (predicted), last one not. *)
  let a1 = Trace.successive_accuracy t 1 in
  check_bool "acc(1) = 0.9" true (abs_float (a1 -. 0.9) < 1e-9);
  let a2 = Trace.successive_accuracy t 2 in
  (* windows of 2: 9 windows, 8 all-correct *)
  check_bool "acc(2)" true (abs_float (a2 -. (8. /. 9.)) < 1e-9);
  check_bool "monotone decreasing" true
    (Trace.successive_accuracy t 4 <= a2 +. 1e-9)

(* The counts [Trace.of_blocks] keeps, recounted directly from their
   definitions over the trace's labels: per block, per consecutive pair,
   and per branch block the directions taken, each terminator looked up
   in the program. *)
let trace_agrees_with_recount program trace =
  let t = Trace.of_blocks program trace in
  let blocks = trace_labels program trace in
  let count tbl k =
    Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  in
  let blocks_n = Hashtbl.create 16 and edges_n = Hashtbl.create 16 in
  let dirs = Hashtbl.create 16 and stream = ref [] in
  List.iter (count blocks_n) blocks;
  let rec pairs = function
    | b1 :: (b2 :: _ as rest) ->
        count edges_n (b1, b2);
        (match (Program.find program b1).Program.term with
        | Instr.Br { if_true; _ } ->
            let taken = Label.equal b2 if_true in
            stream := (b1, taken) :: !stream;
            count dirs (b1, taken)
        | Instr.Jmp _ | Instr.Halt -> ());
        pairs rest
    | [ _ ] | [] -> ()
  in
  pairs blocks;
  let labels =
    List.sort_uniq Label.compare (Program.labels program @ blocks)
  in
  let n tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
  let predict l = n dirs (l, true) >= n dirs (l, false) in
  let correct =
    List.length (List.filter (fun (l, taken) -> predict l = taken) !stream)
  in
  let nbr = List.length !stream in
  List.for_all (fun l -> Trace.block_count t l = n blocks_n l) labels
  && List.for_all
       (fun src ->
         List.for_all
           (fun dst -> Trace.edge_count t ~src ~dst = n edges_n (src, dst))
           labels)
       labels
  && List.for_all
       (fun l ->
         let tk = n dirs (l, true) and nt = n dirs (l, false) in
         Trace.taken_fraction t l
         = (if tk + nt = 0 then None
            else Some (float_of_int tk /. float_of_int (tk + nt))))
       labels
  && Trace.dynamic_branches t = nbr
  && Trace.prediction_accuracy t
     = (if nbr = 0 then 1.0 else float_of_int correct /. float_of_int nbr)

let prop_trace_recount =
  QCheck.Test.make ~name:"Trace.of_blocks = direct recount" ~count:100
    Gen_programs.arb_program (fun g ->
      let r =
        Interp.run ~regs:Gen_programs.regs ~mem:(Gen_programs.make_mem g)
          g.Gen_programs.program
      in
      trace_agrees_with_recount g.Gen_programs.program r.Interp.block_trace)

(* A hand-made trace may pair blocks that are not static successors
   (body -> done, done -> head); an index outside the program is
   rejected. *)
let test_trace_non_successor_pair () =
  let p, _ = branchy ~n:1 in
  let index l = Decoded.block_index (Decoded.of_program p) (lbl l) in
  let blocks =
    Array.map index [| "head"; "body"; "done"; "head"; "head"; "body"; "head" |]
  in
  check_bool "recount agrees" true (trace_agrees_with_recount p blocks);
  let t = Trace.of_blocks p blocks in
  check_int "non-successor edge counted" 1
    (Trace.edge_count t ~src:(lbl "body") ~dst:(lbl "done"));
  let nblocks = List.length p.Program.blocks in
  List.iter
    (fun bad ->
      Alcotest.check_raises
        (Printf.sprintf "index %d out of range" bad)
        (Invalid_argument
           (Printf.sprintf "Trace.of_blocks: block index %d outside the program"
              bad))
        (fun () -> ignore (Trace.of_blocks p [| index "head"; bad |])))
    [ nblocks; -1 ]

(* ---------- Decoded ---------- *)

(* Each corruption of a fresh decoded form is one the walks would act
   on; the round trip must name the block, and the op where there is
   one. *)
let test_decoded_check_rejects () =
  let p =
    Asm.parse_exn
      {|
entry head
head:
  r2 = r1 < 3
  br r2 ? body : done
body:
  store r1+0 = r3
  r4 = load r1+0
  r1 = add r1 1
  jmp head
done:
  out r4
  halt
|}
  in
  Alcotest.(check (result unit string)) "a fresh form round-trips" (Ok ())
    (Decoded.check (Decoded.of_program p));
  let rejects what ~place corrupt =
    let d = Decoded.of_program p in
    let block l = Decoded.block_index d (lbl l) in
    corrupt d block (fun l j -> d.Decoded.op_bounds.(block l) + j);
    match Decoded.check d with
    | Ok () -> Alcotest.failf "%s: accepted" what
    | Error e ->
        if not (String.starts_with ~prefix:(place ^ ":") e) then
          Alcotest.failf "%s: %S does not begin with %s" what e place
  in
  rejects "branch arms swapped" ~place:"block head" (fun d block _ ->
      let bi = block "head" in
      let t = d.Decoded.term_t.(bi) in
      d.Decoded.term_t.(bi) <- d.Decoded.term_f.(bi);
      d.Decoded.term_f.(bi) <- t);
  rejects "store data read from its base" ~place:"block body op 0"
    (fun d _ op -> d.Decoded.s2_reg.(op "body" 0) <- d.Decoded.s1_reg.(op "body" 0));
  rejects "op bound off by one" ~place:"block body" (fun d block _ ->
      let bi = block "body" + 1 in
      d.Decoded.op_bounds.(bi) <- d.Decoded.op_bounds.(bi) - 1);
  rejects "an operand the load lacks" ~place:"block body op 1" (fun d _ op ->
      d.Decoded.s2_reg.(op "body" 1) <- 4);
  rejects "load flag cleared" ~place:"block body op 1" (fun d _ op ->
      d.Decoded.is_load.(op "body" 1) <- false);
  rejects "another opcode" ~place:"block body op 2" (fun d _ op ->
      d.Decoded.alu.(op "body" 2) <- Opcode.Sub);
  rejects "ops entry replaced" ~place:"block done op 0" (fun d _ op ->
      d.Decoded.ops.(op "done" 0) <- Instr.Nop)

let test_program_validation () =
  Alcotest.check_raises "undefined target"
    (Invalid_argument "Program.make: undefined target nowhere in block e")
    (fun () ->
      ignore
        (Program.make ~entry:(lbl "e")
           [ Program.block (lbl "e") [] (Instr.Jmp (lbl "nowhere")) ]))

(* ---------- Asm ---------- *)

let test_asm_roundtrip_manual () =
  let text = Asm.print straight_line in
  match Asm.parse text with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok p -> Alcotest.(check string) "round trip" text (Asm.print p)

let test_asm_parse_source () =
  let src = {x|
# sum 0..4
entry main
main:
  r1 = 0
  r2 = 0
  jmp head
head:
  r4 = r1 < 5
  br r4 ? body : done
body:
  r2 = add r2 r1
  r1 = add r1 1
  jmp head
done:
  out r2
  halt
|x} in
  match Asm.parse src with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok p ->
      let r = Interp.run ~regs:[] ~mem:(Memory.create ~size:16) p in
      Alcotest.(check (list int)) "runs" [ 10 ] r.Interp.output;
      (* round trip again *)
      Alcotest.(check string) "stable print" (Asm.print p)
        (Asm.print (Asm.parse_exn (Asm.print p)))

let test_asm_memory_ops () =
  let src = {x|entry e
e:
  r1 = 8
  store r1+2 = r1
  r2 = load r1+2
  r3 = load r1+-8
  out r2
  halt
|x} in
  match Asm.parse src with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok p ->
      let r = Interp.run ~regs:[] ~mem:(Memory.create ~size:32) p in
      Alcotest.(check (list int)) "store/load round trip" [ 8 ] r.Interp.output;
      Alcotest.(check string) "print stable" (Asm.print p)
        (Asm.print (Asm.parse_exn (Asm.print p)))

let test_asm_errors () =
  let bad = [
    "e:
  halt
" (* no entry *);
    "entry e
e:
  r1 = 0
" (* no terminator *);
    "entry e
e:
  r1 = frob r2 r3
  halt
" (* bad op *);
    "entry e
e:
  jmp nowhere
" (* undefined target *);
  ] in
  List.iter
    (fun src ->
      match Asm.parse src with
      | Ok _ -> Alcotest.failf "expected a parse error for %S" src
      | Error _ -> ())
    bad

let qsuite name tests = (name, List.map Qc.to_alcotest tests)

let () =
  Alcotest.run "isa"
    [
      ( "pred",
        [
          Alcotest.test_case "always" `Quick test_pred_always;
          Alcotest.test_case "eval" `Quick test_pred_eval;
          Alcotest.test_case "contradiction" `Quick test_pred_contradiction;
          Alcotest.test_case "word boundary" `Quick test_pred_word_boundary;
          Alcotest.test_case "implies/disjoint" `Quick test_pred_implies_disjoint;
          Alcotest.test_case "vector encoding" `Quick test_pred_vector;
        ] );
      qsuite "pred-props"
        [
          prop_eval_monotone;
          prop_implies_semantics;
          prop_disjoint_semantics;
          prop_pred_matches_oracle;
        ];
      ( "opcode",
        [
          Alcotest.test_case "semantics" `Quick test_opcode_semantics;
          Alcotest.test_case "vector errors" `Quick test_pred_vector_errors;
        ] );
      ( "memory",
        [
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "demand paging" `Quick test_memory_demand;
          Alcotest.test_case "empty demand range" `Quick
            test_memory_demand_empty_range;
          Alcotest.test_case "page boundaries" `Quick test_memory_page_boundaries;
          Alcotest.test_case "probe/copy/equal" `Quick test_memory_probe_equal;
          Alcotest.test_case "poke out of range" `Quick test_memory_poke_range;
          Qc.to_alcotest prop_memory_matches_oracle;
        ] );
      ( "interp",
        [
          Alcotest.test_case "basic" `Quick test_interp_basic;
          Alcotest.test_case "load-use stall" `Quick test_interp_load_use_stall;
          Alcotest.test_case "loop" `Quick test_interp_loop;
          Alcotest.test_case "fatal fault" `Quick test_interp_fatal_fault;
          Alcotest.test_case "recoverable fault" `Quick test_interp_recoverable_fault;
          Alcotest.test_case "div fault" `Quick test_interp_div_fault;
          Alcotest.test_case "no trace, no per-block allocation" `Quick
            test_interp_no_trace_no_alloc;
        ] );
      ( "trace",
        [
          Alcotest.test_case "counts" `Quick test_trace_counts;
          Alcotest.test_case "successive accuracy" `Quick test_trace_successive;
          Alcotest.test_case "non-successor pair" `Quick
            test_trace_non_successor_pair;
          Qc.to_alcotest prop_trace_recount;
        ] );
      ( "program",
        [ Alcotest.test_case "validation" `Quick test_program_validation ] );
      ( "decoded",
        [
          Alcotest.test_case "round trip rejects corruption" `Quick
            test_decoded_check_rejects;
        ] );
      ( "asm",
        [
          Alcotest.test_case "round trip" `Quick test_asm_roundtrip_manual;
          Alcotest.test_case "parse source" `Quick test_asm_parse_source;
          Alcotest.test_case "memory ops" `Quick test_asm_memory_ops;
          Alcotest.test_case "errors" `Quick test_asm_errors;
        ] );
    ]
