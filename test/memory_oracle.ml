(* The reference the flat [Memory] is compared against: the hash-table
   memory it replaced. Written words live in one table and unmapped pages
   in another, so an access hashes twice; a fresh memory holds nothing
   and an unwritten word reads as 0; [equal] compares sorted lists of the
   non-zero words. It shares [Memory]'s fault type and page size, so the
   two raise comparable faults. *)

open Psb_isa

let page_size = Memory.page_size

type t = {
  size : int;
  data : (int, int) Hashtbl.t;
  unmapped : (int, unit) Hashtbl.t; (* keyed by page number *)
}

let create ~size = { size; data = Hashtbl.create 256; unmapped = Hashtbl.create 8 }

let create_demand ~size ~unmapped:(lo, hi) =
  let t = create ~size in
  if hi > lo then
    for p = lo / page_size to (hi - 1) / page_size do
      Hashtbl.replace t.unmapped p ()
    done;
  t

let check t addr =
  if addr < 0 || addr >= t.size then raise (Memory.Fault (Out_of_bounds addr));
  if Hashtbl.mem t.unmapped (addr / page_size) then
    raise (Memory.Fault (Unmapped addr))

let read t addr =
  check t addr;
  Option.value (Hashtbl.find_opt t.data addr) ~default:0

let write t addr v =
  check t addr;
  Hashtbl.replace t.data addr v

let peek t addr = Option.value (Hashtbl.find_opt t.data addr) ~default:0

let poke t addr v =
  Hashtbl.remove t.unmapped (addr / page_size);
  Hashtbl.replace t.data addr v

let probe t addr : Memory.fault option =
  if addr < 0 || addr >= t.size then Some (Out_of_bounds addr)
  else if Hashtbl.mem t.unmapped (addr / page_size) then Some (Unmapped addr)
  else None

let handle_fault t : Memory.fault -> bool = function
  | Unmapped addr ->
      Hashtbl.remove t.unmapped (addr / page_size);
      true
  | Out_of_bounds _ -> false

let size t = t.size

let copy t =
  { size = t.size; data = Hashtbl.copy t.data; unmapped = Hashtbl.copy t.unmapped }

let normalized t =
  Hashtbl.fold (fun k v acc -> if v = 0 then acc else (k, v) :: acc) t.data []
  |> List.sort compare

let equal a b = a.size = b.size && normalized a = normalized b
