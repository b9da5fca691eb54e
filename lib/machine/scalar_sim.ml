open Psb_isa

(* Dynamic operations per opcode class: every block in the trace runs
   all its operations, except the last block of a fatal run, which stops
   at the faulting operation. The instructions charged before that block,
   terminators included, say how far into it the run got. *)
let class_counts (d : Decoded.t) (r : Interp.result) =
  let counts = Array.make Decoded.num_kinds 0 in
  let add bi ops by =
    for i = d.Decoded.op_bounds.(bi) to d.Decoded.op_bounds.(bi) + ops - 1 do
      let k = d.Decoded.kind.(i) in
      counts.(k) <- counts.(k) + by
    done
  in
  let trace = r.Interp.block_trace in
  let n = Array.length trace in
  let whole = match r.Interp.outcome with Interp.Fatal _ -> n - 1 | _ -> n in
  let visits = Array.make d.Decoded.nblocks 0 in
  let charged = ref 0 in
  for p = 0 to whole - 1 do
    let bi = trace.(p) in
    visits.(bi) <- visits.(bi) + 1;
    charged := !charged + Decoded.block_ops d bi + 1
  done;
  Array.iteri (fun bi v -> if v > 0 then add bi (Decoded.block_ops d bi) v) visits;
  if whole < n then add trace.(whole) (r.Interp.dyn_instrs - !charged) 1;
  counts

let run ?(record_trace = true) ?events ?metrics ~regs ~mem program =
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
  | None -> Interp.run ~record_trace ?on_block ~regs ~mem program
  | Some m ->
      let open Psb_obs.Metrics in
      let decoded = Decoded.of_program program in
      let r = Interp.run ~decoded ?on_block ~regs ~mem program in
      let counts = class_counts decoded r in
      (* no counter at zero: the dump lists the classes that ran *)
      let count ?labels name n = if n > 0 then inc (counter m ?labels name) ~by:n in
      Array.iteri
        (fun k n ->
          count ~labels:[ ("class", Decoded.kind_names.(k)) ] "scalar_ops" n)
        counts;
      count "scalar_mem_accesses" (counts.(Decoded.kload) + counts.(Decoded.kstore));
      inc (counter m "scalar_cycles_total") ~by:r.Interp.cycles;
      inc (counter m "scalar_dyn_instrs") ~by:r.Interp.dyn_instrs;
      if record_trace then r else { r with Interp.block_trace = [||] }
