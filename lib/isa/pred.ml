(* The paper's ternary vector (§4.2.1), one bit pair per condition:
   [mask] has bit [i] set iff the predicate mentions condition [i],
   [want] the required value of each mentioned bit.
   Invariant: [want land lnot mask = 0], so two predicates are equal
   exactly when both words are. *)
type t = { mask : int; want : int }

type value = True | False | Unspec
type cond_value = T | F | U

let word_bits = Sys.int_size
let always = { mask = 0; want = 0 }
let is_always p = p.mask = 0

let conj p c v =
  let i = Cond.index c in
  if i >= word_bits then
    invalid_arg
      (Format.asprintf "Pred.conj: %a is past the predicate word (c0..c%d)"
         Cond.pp c (word_bits - 1));
  let b = 1 lsl i in
  if p.mask land b = 0 then
    { mask = p.mask lor b; want = (if v then p.want lor b else p.want) }
  else if (p.want land b <> 0) = v then p
  else
    invalid_arg
      (Format.asprintf "Pred.conj: contradictory literal on %a" Cond.pp c)

let of_list lits = List.fold_left (fun p (c, v) -> conj p c v) always lits

(* The set bits of [m] from bit [i] up, in ascending order. The shift is
   [lsr]: bit [word_bits - 1] is the sign bit, and [asr] would never
   empty a word that has it set. *)
let rec fold_bits f want m i acc =
  if m = 0 then acc
  else
    let acc = if m land 1 = 0 then acc else f i ((want lsr i) land 1 = 1) acc in
    fold_bits f want (m lsr 1) (i + 1) acc

let fold_conds f p acc = fold_bits f p.want p.mask 0 acc
let iter_conds f p = fold_conds (fun c v () -> f c v) p ()
let literals p = List.rev (fold_conds (fun c v acc -> (c, v) :: acc) p [])
let conds p = fold_conds (fun c _ s -> Cond.Set.add c s) p Cond.Set.empty

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let arity p = popcount p.mask

let requires p c =
  let i = Cond.index c in
  if i >= word_bits || (p.mask lsr i) land 1 = 0 then None
  else Some ((p.want lsr i) land 1 = 1)

let count_conds f p = fold_conds (fun c _ n -> if f c then n + 1 else n) p 0

let flip p c =
  match requires p c with
  | None ->
      invalid_arg (Format.asprintf "Pred.flip: %a not in predicate" Cond.pp c)
  | Some _ -> { p with want = p.want lxor (1 lsl Cond.index c) }

(* Unspec dominates False: the walk stops at the first unspecified
   condition, whatever mismatches it has already seen. A top-level
   walk, so an evaluation allocates nothing. *)
let rec eval_bits lookup want m i matched =
  if m = 0 then if matched then True else False
  else if m land 1 = 0 then eval_bits lookup want (m lsr 1) (i + 1) matched
  else
    let v = (want lsr i) land 1 = 1 in
    match lookup i with
    | U -> Unspec
    | T -> eval_bits lookup want (m lsr 1) (i + 1) (matched && v)
    | F -> eval_bits lookup want (m lsr 1) (i + 1) (matched && not v)

let eval p lookup = eval_bits lookup p.want p.mask 0 true

let implies p q =
  q.mask land p.mask = q.mask && (p.want lxor q.want) land q.mask = 0

let disjoint p q = p.mask land q.mask land (p.want lxor q.want) <> 0
let equal p q = p.mask = q.mask && p.want = q.want

let fits ~width p =
  width >= word_bits || p.mask land lnot ((1 lsl width) - 1) = 0

let to_vector ~width p =
  let buf = Bytes.make width 'X' in
  iter_conds
    (fun c v ->
      if c >= width then
        invalid_arg
          (Format.asprintf "Pred.to_vector: %a out of CCR width %d" Cond.pp c
             width);
      Bytes.set buf c (if v then '1' else '0'))
    p;
  Bytes.to_string buf

let pp ppf p =
  if is_always p then Format.pp_print_string ppf "alw"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "&")
      (fun ppf (c, v) ->
        if v then Cond.pp ppf c else Format.fprintf ppf "!%a" Cond.pp c)
      ppf (literals p)
