(* The three machines as the benchmark drives them — the interpreter,
   the ROB rival and the predicated VLIW — each call under its layer's
   span, with the simulated counts summed over every run.

   The simulated counts are exact: a change that only speeds up a
   simulator must leave them identical. Host-time rates credit every
   machine with the interpreter's committed dynamic instructions for the
   program, so the three rates measure the same work. *)

open Psb_isa
module Driver = Psb_compiler.Driver
module Machine_model = Psb_machine.Machine_model
module Rob_sim = Psb_machine.Rob_sim
module Vliw_sim = Psb_machine.Vliw_sim

type t = {
  mutable interp_instrs : int;
  mutable vliw_instrs : int;
  mutable rob_instrs : int;
  mutable vliw_cycles : int;
  mutable vliw_ops : int;
  mutable vliw_squashed_ops : int;
  mutable vliw_commits : int;
  mutable vliw_squashes : int;
  mutable rob_cycles : int;
  mutable rob_committed : int;
  mutable rob_fetched : int;
  mutable rob_mispredicts : int;
  mutable rob_squashed : int;
  vliw_breakdown : (string, int) Hashtbl.t;  (** category -> cycles *)
  rob_breakdown : (string, int) Hashtbl.t;
}

let create () =
  {
    interp_instrs = 0;
    vliw_instrs = 0;
    rob_instrs = 0;
    vliw_cycles = 0;
    vliw_ops = 0;
    vliw_squashed_ops = 0;
    vliw_commits = 0;
    vliw_squashes = 0;
    rob_cycles = 0;
    rob_committed = 0;
    rob_fetched = 0;
    rob_mispredicts = 0;
    rob_squashed = 0;
    vliw_breakdown = Hashtbl.create 8;
    rob_breakdown = Hashtbl.create 8;
  }

let add_breakdown tbl fields =
  List.iter
    (fun (cat, n) ->
      Hashtbl.replace tbl cat
        (n + Option.value (Hashtbl.find_opt tbl cat) ~default:0))
    fields

let interp ?ledger ?label acc ~regs ~mem program =
  let r =
    Ledger.opt_span ledger ?label "isa.interp" (fun () ->
        Interp.run ~record_trace:false ~regs ~mem program)
  in
  acc.interp_instrs <- acc.interp_instrs + r.Interp.dyn_instrs;
  r

let rob ?ledger ?label acc ~instrs ~regs ~mem program =
  let r =
    Ledger.opt_span ledger ?label "machine.rob" (fun () ->
        Rob_sim.run ~model:Machine_model.base ~regs ~mem program)
  in
  let s = r.Rob_sim.stats in
  acc.rob_instrs <- acc.rob_instrs + instrs;
  acc.rob_cycles <- acc.rob_cycles + r.Rob_sim.cycles;
  acc.rob_committed <- acc.rob_committed + s.Rob_sim.committed;
  acc.rob_fetched <- acc.rob_fetched + s.Rob_sim.fetched;
  acc.rob_mispredicts <- acc.rob_mispredicts + s.Rob_sim.mispredicts;
  acc.rob_squashed <- acc.rob_squashed + s.Rob_sim.squashed;
  add_breakdown acc.rob_breakdown (Rob_sim.breakdown_fields r.Rob_sim.breakdown);
  r

let vliw ?ledger ?label acc ~instrs compiled ~regs ~mem =
  let r =
    Ledger.opt_span ledger ?label "machine.vliw" (fun () ->
        Driver.run_vliw compiled ~regs ~mem)
  in
  let s = r.Vliw_sim.stats in
  acc.vliw_instrs <- acc.vliw_instrs + instrs;
  acc.vliw_cycles <- acc.vliw_cycles + r.Vliw_sim.cycles;
  acc.vliw_ops <- acc.vliw_ops + s.Vliw_sim.dyn_ops;
  acc.vliw_squashed_ops <- acc.vliw_squashed_ops + s.Vliw_sim.squashed_ops;
  acc.vliw_commits <- acc.vliw_commits + s.Vliw_sim.commits;
  acc.vliw_squashes <- acc.vliw_squashes + s.Vliw_sim.squashes;
  add_breakdown acc.vliw_breakdown (Vliw_sim.breakdown_fields r.Vliw_sim.breakdown);
  r

(* Host-time metrics of one machine's spans ([Ledger.call_metrics]),
   normalised by the instructions and simulated cycles they ran. *)
let host ledger ~within ~total ~instrs ?cycles prefix =
  let s = Ledger.stat ledger prefix in
  let instrs = float_of_int instrs in
  Ledger.call_metrics ledger ~within ~total prefix
  @ [
      (prefix ^ ".words_per_instr", Workload.ratio s.Ledger.words instrs);
      (prefix ^ ".minstr_per_s", Workload.ratio instrs s.Ledger.seconds /. 1e6);
    ]
  @
  match cycles with
  | None -> []
  | Some c ->
      [ (prefix ^ ".ns_per_cycle", Workload.ratio s.Ledger.seconds (float_of_int c) *. 1e9) ]

let metrics ledger acc ~within ~total =
  let f = float_of_int in
  let breakdown prefix tbl =
    Hashtbl.fold (fun cat n l -> (prefix ^ ".breakdown." ^ cat, f n) :: l) tbl []
  in
  host ledger ~within ~total ~instrs:acc.interp_instrs "isa.interp"
  @ host ledger ~within ~total ~instrs:acc.vliw_instrs ~cycles:acc.vliw_cycles
      "machine.vliw"
  @ host ledger ~within ~total ~instrs:acc.rob_instrs ~cycles:acc.rob_cycles
      "machine.rob"
  @ [
      ("machine.vliw.cycles", f acc.vliw_cycles);
      ("machine.vliw.ipc", Workload.ratio (f acc.vliw_ops) (f acc.vliw_cycles));
      ("machine.vliw.commits", f acc.vliw_commits);
      ("machine.vliw.squashes", f acc.vliw_squashes);
      ( "machine.vliw.useful_ratio",
        Workload.ratio (f acc.vliw_ops) (f (acc.vliw_ops + acc.vliw_squashed_ops)) );
      ("machine.rob.cycles", f acc.rob_cycles);
      ("machine.rob.ipc", Workload.ratio (f acc.rob_committed) (f acc.rob_cycles));
      ("machine.rob.mispredicts", f acc.rob_mispredicts);
      ("machine.rob.squashed", f acc.rob_squashed);
      ( "machine.rob.useful_ratio",
        Workload.ratio (f acc.rob_committed) (f acc.rob_fetched) );
    ]
  @ breakdown "machine.vliw" acc.vliw_breakdown
  @ breakdown "machine.rob" acc.rob_breakdown
