(* The reference [Pred] is compared against: the literal map it was
   before it became the two-word ternary mask. A conjunction maps each
   condition it mentions to its required value. Every operation reads
   the map, not a bit pattern, so an encoding fault in the mask (a
   shift, a lost polarity, a missed range check) shows as a
   disagreement. The range rule is [Pred]'s: conditions
   [0 .. Pred.word_bits - 1]. *)

open Psb_isa

type t = bool Cond.Map.t

let always = Cond.Map.empty
let is_always = Cond.Map.is_empty

let conj p c v =
  if Cond.index c >= Pred.word_bits then
    invalid_arg
      (Format.asprintf "Pred.conj: %a is past the predicate word (c0..c%d)"
         Cond.pp c (Pred.word_bits - 1));
  match Cond.Map.find_opt c p with
  | None -> Cond.Map.add c v p
  | Some v' when v = v' -> p
  | Some _ ->
      invalid_arg
        (Format.asprintf "Pred.conj: contradictory literal on %a" Cond.pp c)

let of_list lits = List.fold_left (fun p (c, v) -> conj p c v) always lits
let literals p = Cond.Map.bindings p
let conds p = Cond.Map.fold (fun c _ acc -> Cond.Set.add c acc) p Cond.Set.empty
let arity p = Cond.Map.cardinal p
let requires p c = Cond.Map.find_opt c p
let count_conds f p = Cond.Map.fold (fun c _ n -> if f c then n + 1 else n) p 0

let flip p c =
  match Cond.Map.find_opt c p with
  | None ->
      invalid_arg (Format.asprintf "Pred.flip: %a not in predicate" Cond.pp c)
  | Some v -> Cond.Map.add c (not v) p

(* Unspec dominates False wherever the literals sit: every literal is
   visited, and only [Unspec] ends the walk early. *)
let eval p lookup =
  let exception Unspecified in
  try
    let matched = ref true in
    Cond.Map.iter
      (fun c v ->
        match lookup c with
        | Pred.U -> raise Unspecified
        | Pred.T -> if not v then matched := false
        | Pred.F -> if v then matched := false)
      p;
    if !matched then Pred.True else Pred.False
  with Unspecified -> Pred.Unspec

let implies p q =
  Cond.Map.for_all
    (fun c v ->
      match Cond.Map.find_opt c p with Some v' -> v = v' | None -> false)
    q

let disjoint p q =
  Cond.Map.exists
    (fun c v ->
      match Cond.Map.find_opt c q with Some v' -> v <> v' | None -> false)
    p

let equal = Cond.Map.equal Bool.equal
let fits ~width p = Cond.Map.for_all (fun c _ -> Cond.index c < width) p

let to_vector ~width p =
  let buf = Bytes.make width 'X' in
  Cond.Map.iter
    (fun c v ->
      let i = Cond.index c in
      if i >= width then
        invalid_arg
          (Format.asprintf "Pred.to_vector: %a out of CCR width %d" Cond.pp c
             width);
      Bytes.set buf i (if v then '1' else '0'))
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
