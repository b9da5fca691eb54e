open Psb_isa

let class_of (op : Instr.op) =
  match op with
  | Instr.Alu _ -> "alu"
  | Instr.Mov _ -> "mov"
  | Instr.Load _ -> "load"
  | Instr.Store _ -> "store"
  | Instr.Cmp _ -> "cmp"
  | Instr.Setc _ -> "setc"
  | Instr.Out _ -> "out"
  | Instr.Nop -> "nop"

let run ?record_trace ?events ?metrics ~regs ~mem program =
  (* The scalar machine never speculates, so its event stream is just the
     block timeline: one [Region_enter] per block entered (block labels
     interned), stamped with the scalar cycle count. *)
  let on_block =
    Option.map
      (fun e cycle label ->
        let a = Psb_obs.Events.intern e (Label.name label) in
        Psb_obs.Events.emit e ~cycle Psb_obs.Events.Region_enter ~a ~b:0)
      events
  in
  match metrics with
  | None -> Interp.run ?record_trace ?on_block ~regs ~mem program
  | Some m ->
      let open Psb_obs.Metrics in
      let count op addr =
        inc (counter m "scalar_ops" ~labels:[ ("class", class_of op) ]);
        if addr <> None then inc (counter m "scalar_mem_accesses")
      in
      let r =
        Interp.run ?record_trace ~observer:count ?on_block ~regs ~mem program
      in
      inc (counter m "scalar_cycles_total") ~by:r.Interp.cycles;
      inc (counter m "scalar_dyn_instrs") ~by:r.Interp.dyn_instrs;
      r
