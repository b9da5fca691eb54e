open Psb_isa

(* The CCR is stored packed: [specified] has bit [i] set iff condition
   [i] is specified, [values] its value (meaningful only under a
   specified bit — {!set} keeps unspecified value bits at 0 so packed
   words compare equal whenever the ternary contents do). *)

type t = {
  width : int;
  mutable specified : int;
  mutable values : int;
  mutable dirty : int;
      (* bitmask of conditions written since the last [take_dirty]; -1
         after a wholesale change *)
  (* evaluation accounting (exported through lib/obs by the machine) *)
  mutable evals_mask : int;
}

let create ~width =
  if width <= 0 then invalid_arg "Ccr.create: width must be positive";
  if width > Pred.word_bits then
    invalid_arg
      (Printf.sprintf "Ccr.create: width %d is past Pred.word_bits (%d)" width
         Pred.word_bits);
  { width; specified = 0; values = 0; dirty = -1; evals_mask = 0 }

let out_of_range name c =
  invalid_arg (Format.asprintf "Ccr.%s: %a outside CCR" name Cond.pp c)

let get t c =
  let i = Cond.index c in
  if i >= t.width then out_of_range "get" c;
  let b = 1 lsl i in
  if t.specified land b = 0 then Pred.U
  else if t.values land b = 0 then Pred.F
  else Pred.T

let set t c v =
  let i = Cond.index c in
  if i >= t.width then out_of_range "set" c;
  let b = 1 lsl i in
  t.specified <- t.specified lor b;
  t.values <- (if v then t.values lor b else t.values land lnot b);
  t.dirty <- t.dirty lor b

let take_dirty t =
  let d = t.dirty in
  t.dirty <- 0;
  d

let reset t =
  t.specified <- 0;
  t.values <- 0;
  t.dirty <- -1

let copy t = { t with specified = t.specified }

let assign t ~from =
  if t.width <> from.width then invalid_arg "Ccr.assign: width mismatch";
  t.specified <- from.specified;
  t.values <- from.values;
  t.dirty <- -1

(* {!Pred.eval}'s unspec-dominant rule on the words: any
   mentioned-but-unspecified condition → [Unspec]; otherwise all
   mentioned value bits must match [want]. *)
let evalc t (p : Pred.t) =
  t.evals_mask <- t.evals_mask + 1;
  let m = p.Pred.mask in
  if m land t.specified <> m then Pred.Unspec
  else if (t.values lxor p.Pred.want) land m = 0 then Pred.True
  else Pred.False

let evalc_range t ps ~lo ~hi out =
  for i = lo to hi - 1 do
    out.(i - lo) <-
      (match evalc t ps.(i) with
      | Pred.False -> 0
      | Pred.True -> 1
      | Pred.Unspec -> 2)
  done

(* A top-level scan, not a local closure, so a call allocates nothing. *)
let rec first_true t ps ~lo ~hi =
  if lo >= hi then -1
  else
    match evalc t ps.(lo) with
    | Pred.True -> lo
    | Pred.False | Pred.Unspec -> first_true t ps ~lo:(lo + 1) ~hi

let evals_mask t = t.evals_mask
