open Psb_isa

type t = {
  cycles : int;
  unit_visits : int;
  exits_taken : (Label.t * int) list;
}

(* A step of the flat table: a copy id ([>= 0]), an exit as the
   complement of its cost ([lnot (exit_cycle + 1)], [< -1]), or
   [missing]. *)
let missing = min_int

let dir_slot = function Runit.Dtrue -> 0 | Runit.Dfalse -> 1 | Runit.Djmp -> 2

let measure ~units ~schedules program ~block_trace:trace =
  let d = Decoded.of_program program in
  let nb = d.Decoded.nblocks in
  Array.iter
    (fun b ->
      if b < 0 || b >= nb then
        invalid_arg
          (Printf.sprintf "Cycles.measure: block index %d outside the program" b))
    trace;
  (* Flatten the units once. Units are numbered in header order and
     their copies consecutively from [first_copy.(k)]; copy [c]'s steps
     sit at [3 * c + dir_slot dir]. *)
  let us = Array.of_list (Label.Map.bindings units) in
  let nu = Array.length us in
  let first_copy = Array.make (nu + 1) 0 in
  Array.iteri
    (fun k (_, (u : Runit.t)) ->
      first_copy.(k + 1) <- first_copy.(k) + Array.length u.Runit.copies)
    us;
  let unit_of = Array.make nb (-1) in
  let copy_block = Array.make first_copy.(nu) (-1) in
  let steps = Array.make (3 * first_copy.(nu)) missing in
  Array.iteri
    (fun k (header, (u : Runit.t)) ->
      let sched = Label.Map.find header schedules in
      let base = first_copy.(k) in
      let hb = Decoded.block_index d header in
      if hb >= 0 then unit_of.(hb) <- k;
      Array.iteri
        (fun cid (c : Runit.copy) ->
          copy_block.(base + cid) <- Decoded.block_index d c.Runit.label)
        u.Runit.copies;
      Hashtbl.iter
        (fun (cid, dir) step ->
          steps.((3 * (base + cid)) + dir_slot dir) <-
            (match step with
            | Runit.Goto c -> c
            | Runit.Take_exit xid -> lnot (Sched.exit_cycle sched xid + 1)))
        u.Runit.steps)
    us;
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
  (* Walk unit [k]'s copies along the recorded path from global copy
     [c]; the visit ends at the exit the trace takes. *)
  let rec walk k c =
    let p = !pos in
    let b = copy_block.(c) in
    if b <> trace.(p) then
      failwith
        (Format.asprintf "Cycles.measure: unit %a expected %a, trace has %a"
           Label.pp (fst us.(k)) Label.pp
           (snd us.(k)).Runit.copies.(c - first_copy.(k)).Runit.label
           Label.pp labels.(trace.(p)));
    let dir =
      if term_kind.(b) <> Decoded.tbr then 2
      else if p + 1 >= n then ends_inside k b
      else if trace.(p + 1) = term_t.(b) then 0
      else if trace.(p + 1) = term_f.(b) then 1
      else failwith "Cycles.measure: trace does not follow the branch"
    in
    let s = steps.((3 * c) + dir) in
    if s >= 0 then begin
      if p + 1 >= n then ends_inside k b;
      pos := p + 1;
      walk k (first_copy.(k) + s)
    end
    else if s = missing then failwith "Cycles.measure: missing step"
    else begin
      cycles := !cycles + lnot s;
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
    walk k first_copy.(k)
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
