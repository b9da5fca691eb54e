type fault = Out_of_bounds of int | Unmapped of int

exception Fault of fault

let page_size = 64
let page_bits = 6

(* [words] holds every word of [0 .. size-1], unwritten ones as 0;
   [mapped] one flag per page, the last one possibly partial; [unmapped]
   counts the pages whose flag is false, so a fully mapped memory never
   reads a flag. An unmapped page holds only zeros: [write] faults on
   it and [poke] maps it first. *)
type t = {
  size : int;
  words : int array;
  mapped : bool array;
  mutable unmapped : int;
}

let create ~size =
  if size < 0 then invalid_arg "Memory.create: negative size";
  {
    size;
    words = Array.make size 0;
    mapped = Array.make ((size + page_size - 1) / page_size) true;
    unmapped = 0;
  }

let map t p =
  if p >= 0 && p < Array.length t.mapped && not t.mapped.(p) then begin
    t.mapped.(p) <- true;
    t.unmapped <- t.unmapped - 1
  end

(* Page numbers divide as the hash-table memory did (truncating), so a
   range or fault address maps to the same pages; pages that hold no
   address of [0 .. size-1] are skipped, and an empty range ([hi <= lo])
   unmaps nothing. *)
let create_demand ~size ~unmapped:(lo, hi) =
  let t = create ~size in
  if hi > lo then begin
    let last = min (Array.length t.mapped - 1) ((hi - 1) / page_size) in
    for p = max 0 (lo / page_size) to last do
      t.mapped.(p) <- false;
      t.unmapped <- t.unmapped + 1
    done
  end;
  t

(* [addr] is in range when the test passes, so the shift is the page. *)
let check t addr =
  if addr < 0 || addr >= t.size then raise (Fault (Out_of_bounds addr));
  if t.unmapped > 0 && not (Array.unsafe_get t.mapped (addr lsr page_bits)) then
    raise (Fault (Unmapped addr))

let read t addr =
  check t addr;
  Array.unsafe_get t.words addr

let write t addr v =
  check t addr;
  Array.unsafe_set t.words addr v

let peek t addr = if addr >= 0 && addr < t.size then t.words.(addr) else 0

let poke t addr v =
  if addr < 0 || addr >= t.size then
    invalid_arg
      (Printf.sprintf "Memory.poke: address %d outside 0 .. %d" addr (t.size - 1));
  map t (addr lsr page_bits);
  t.words.(addr) <- v

let probe t addr =
  if addr < 0 || addr >= t.size then Some (Out_of_bounds addr)
  else if t.unmapped > 0 && not (Array.unsafe_get t.mapped (addr lsr page_bits))
  then Some (Unmapped addr)
  else None

let handle_fault t = function
  | Unmapped addr ->
      map t (addr / page_size);
      true
  | Out_of_bounds _ -> false

let is_fatal = function Out_of_bounds _ -> true | Unmapped _ -> false
let size t = t.size

let copy t =
  { t with words = Array.copy t.words; mapped = Array.copy t.mapped }

let equal a b =
  a.size = b.size
  &&
  let rec same i =
    i = a.size || (Array.unsafe_get a.words i = Array.unsafe_get b.words i && same (i + 1))
  in
  same 0

let pp_fault ppf = function
  | Out_of_bounds a -> Format.fprintf ppf "out-of-bounds access at %d" a
  | Unmapped a -> Format.fprintf ppf "unmapped page access at %d" a
