(* The reference the flat [Cycles.measure] is compared against: the
   label-walking replay it replaced, which finds each dynamic block by
   label, matches branch arms by [Label.equal] and looks each step up
   through [Runit.step]. It takes the same index trace
   and turns it into labels first. *)

open Psb_isa
open Psb_compiler

let measure ~units ~schedules program ~block_trace =
  let labels = Array.of_list (Program.labels program) in
  let trace = Array.map (fun i -> labels.(i)) block_trace in
  let n = Array.length trace in
  let cycles = ref 0 and visits = ref 0 in
  let exit_counts = Hashtbl.create 16 in
  let pos = ref 0 in
  while !pos < n do
    let header = trace.(!pos) in
    let u =
      match Label.Map.find_opt header units with
      | Some u -> u
      | None ->
          failwith
            (Format.asprintf "Cycles.measure: no unit for %a" Label.pp header)
    in
    let sched = Label.Map.find header schedules in
    incr visits;
    Hashtbl.replace exit_counts header
      (1 + Option.value (Hashtbl.find_opt exit_counts header) ~default:0);
    (* Walk the copies of this unit along the recorded path. *)
    let rec walk cid =
      let label = u.Runit.copies.(cid).Runit.label in
      if not (Label.equal label trace.(!pos)) then
        failwith
          (Format.asprintf "Cycles.measure: unit %a expected %a, trace has %a"
             Label.pp header Label.pp label Label.pp trace.(!pos));
      let block = Program.find program label in
      let dir =
        match block.Program.term with
        | Instr.Halt | Instr.Jmp _ -> Runit.Djmp
        | Instr.Br { if_true; if_false; _ } ->
            if !pos + 1 >= n then
              failwith "Cycles.measure: trace ends at a branch"
            else if Label.equal trace.(!pos + 1) if_true then Runit.Dtrue
            else if Label.equal trace.(!pos + 1) if_false then Runit.Dfalse
            else failwith "Cycles.measure: trace does not follow the branch"
      in
      match Runit.step u cid dir with
      | None -> failwith "Cycles.measure: missing step"
      | Some (Runit.Goto cid') ->
          incr pos;
          walk cid'
      | Some (Runit.Take_exit xid) ->
          cycles := !cycles + Sched.exit_cycle sched xid + 1;
          incr pos
    in
    walk 0
  done;
  {
    Cycles.cycles = !cycles;
    unit_visits = !visits;
    exits_taken =
      Hashtbl.fold (fun l c acc -> (l, c) :: acc) exit_counts []
      |> List.sort (fun (a, _) (b, _) -> Label.compare a b);
  }

let pp ppf (t : Cycles.t) =
  Format.fprintf ppf "{cycles %d; visits %d; per unit %s}" t.Cycles.cycles
    t.Cycles.unit_visits
    (String.concat ","
       (List.map (fun (l, c) -> Printf.sprintf "%s:%d" (Label.name l) c)
          t.Cycles.exits_taken))

(* [compiled]'s estimate of [block_trace] by both replays:
   [Error] describes the two records when they differ. *)
let compare (compiled : Driver.compiled) program ~block_trace =
  let replay f =
    f ~units:compiled.Driver.units ~schedules:compiled.Driver.schedules program
      ~block_trace
  in
  let flat = replay Cycles.measure and oracle = replay measure in
  if flat = oracle then Ok flat
  else Error (Format.asprintf "flat %a, oracle %a" pp flat pp oracle)
