open Psb_isa

type t = {
  cycles : int;
  unit_visits : int;
  exits_taken : (Label.t * int) list;
}

let measure ~units ~schedules program ~block_trace:trace =
  let d = Decoded.of_program program in
  let nb = d.Decoded.nblocks in
  Array.iter
    (fun b ->
      if b < 0 || b >= nb then
        invalid_arg
          (Printf.sprintf "Cycles.measure: block index %d outside the program" b))
    trace;
  (* Units are numbered in header order. Each unit's flat [steps] table
     is read as it is: copy [c]'s steps sit at [3 * c + dir]. *)
  let us = Array.of_list (Label.Map.bindings units) in
  let nu = Array.length us in
  let unit_of = Array.make nb (-1) in
  let steps = Array.map (fun (_, (u : Runit.t)) -> u.Runit.steps) us in
  let scheds = Array.map (fun (header, _) -> Label.Map.find header schedules) us in
  let copy_block =
    Array.mapi
      (fun k (header, (u : Runit.t)) ->
        let hb = Decoded.block_index d header in
        if hb >= 0 then unit_of.(hb) <- k;
        Array.map
          (fun (c : Runit.copy) -> Decoded.block_index d c.Runit.label)
          u.Runit.copies)
      us
  in
  let labels = d.Decoded.labels in
  let term_kind = d.Decoded.term_kind
  and term_t = d.Decoded.term_t
  and term_f = d.Decoded.term_f in
  let n = Array.length trace in
  let visits = Array.make nu 0 in
  let cycles = ref 0 and pos = ref 0 in
  let ends_inside k b =
    failwith
      (Format.asprintf
         "Cycles.measure: trace ends inside unit %a at %a (an estimate needs \
          the trace of a halted run)"
         Label.pp (fst us.(k)) Label.pp labels.(b))
  in
  (* Walk unit [k]'s copies along the recorded path from copy [c]; the
     visit ends at the exit the trace takes. *)
  let rec walk k c =
    let p = !pos in
    let b = copy_block.(k).(c) in
    if b <> trace.(p) then
      failwith
        (Format.asprintf "Cycles.measure: unit %a expected %a, trace has %a"
           Label.pp (fst us.(k)) Label.pp
           (snd us.(k)).Runit.copies.(c).Runit.label
           Label.pp labels.(trace.(p)));
    let dir =
      if term_kind.(b) <> Decoded.tbr then 2
      else if p + 1 >= n then ends_inside k b
      else if trace.(p + 1) = term_t.(b) then 0
      else if trace.(p + 1) = term_f.(b) then 1
      else failwith "Cycles.measure: trace does not follow the branch"
    in
    let s = steps.(k).((3 * c) + dir) in
    if s >= 0 then begin
      if p + 1 >= n then ends_inside k b;
      pos := p + 1;
      walk k s
    end
    else if s = Runit.no_step then failwith "Cycles.measure: missing step"
    else begin
      cycles := !cycles + Sched.exit_cycle scheds.(k) (lnot s) + 1;
      pos := p + 1
    end
  in
  while !pos < n do
    let k = unit_of.(trace.(!pos)) in
    if k < 0 then
      failwith
        (Format.asprintf "Cycles.measure: no unit for %a" Label.pp
           labels.(trace.(!pos)));
    visits.(k) <- visits.(k) + 1;
    walk k 0
  done;
  let exits_taken = ref [] in
  for k = nu - 1 downto 0 do
    if visits.(k) > 0 then exits_taken := (fst us.(k), visits.(k)) :: !exits_taken
  done;
  {
    cycles = !cycles;
    unit_visits = Array.fold_left ( + ) 0 visits;
    exits_taken = !exits_taken;
  }
