open Psb_isa

(* The CCR is stored packed: [specified] has bit [i] set iff condition
   [i] is specified, [values] its value (meaningful only under a
   specified bit — {!set} keeps unspecified value bits at 0 so packed
   words compare equal whenever the ternary contents do). Conditions
   [>= Pred.word_bits] live in the [wide] overflow words; real machines
   never get there (the paper's K is single-digit), but the fallback
   keeps the module total in width. *)

type wide = { w_spec : int array; w_vals : int array }
(* words 1..: condition [i] is bit [i mod word_bits] of word
   [i / word_bits], stored at array index [i / word_bits - 1]. *)

type t = {
  width : int;
  mutable specified : int;
  mutable values : int;
  wide : wide option;
  mutable dirty : int;
      (* word-0 bitmask of conditions written since the last [take_dirty];
         -1 after a wholesale change or a write beyond word 0 *)
  (* evaluation accounting (exported through lib/obs by the machine) *)
  mutable evals_mask : int;
}

let word_bits = Pred.word_bits

let create ~width =
  if width <= 0 then invalid_arg "Ccr.create: width must be positive";
  let wide =
    if width <= word_bits then None
    else
      let nwords = (width - 1) / word_bits in
      Some { w_spec = Array.make nwords 0; w_vals = Array.make nwords 0 }
  in
  { width; specified = 0; values = 0; wide; dirty = -1; evals_mask = 0 }

let width t = t.width

let out_of_range name t c =
  ignore t;
  invalid_arg (Format.asprintf "Ccr.%s: %a outside CCR" name Cond.pp c)

let get t c =
  let i = Cond.index c in
  if i >= t.width then out_of_range "get" t c;
  if i < word_bits then
    let b = 1 lsl i in
    if t.specified land b = 0 then Pred.U
    else if t.values land b = 0 then Pred.F
    else Pred.T
  else
    let w = match t.wide with Some w -> w | None -> assert false in
    let j = (i / word_bits) - 1 and b = 1 lsl (i mod word_bits) in
    if w.w_spec.(j) land b = 0 then Pred.U
    else if w.w_vals.(j) land b = 0 then Pred.F
    else Pred.T

let set t c v =
  let i = Cond.index c in
  if i >= t.width then out_of_range "set" t c;
  if i < word_bits then begin
    let b = 1 lsl i in
    t.specified <- t.specified lor b;
    t.values <- (if v then t.values lor b else t.values land lnot b);
    t.dirty <- t.dirty lor b
  end
  else begin
    let w = match t.wide with Some w -> w | None -> assert false in
    let j = (i / word_bits) - 1 and b = 1 lsl (i mod word_bits) in
    w.w_spec.(j) <- w.w_spec.(j) lor b;
    w.w_vals.(j) <-
      (if v then w.w_vals.(j) lor b else w.w_vals.(j) land lnot b);
    t.dirty <- -1
  end

let take_dirty t =
  let d = t.dirty in
  t.dirty <- 0;
  d

let reset t =
  t.specified <- 0;
  t.values <- 0;
  t.dirty <- -1;
  match t.wide with
  | None -> ()
  | Some w ->
      Array.fill w.w_spec 0 (Array.length w.w_spec) 0;
      Array.fill w.w_vals 0 (Array.length w.w_vals) 0

let copy t =
  {
    t with
    wide =
      Option.map
        (fun w ->
          { w_spec = Array.copy w.w_spec; w_vals = Array.copy w.w_vals })
        t.wide;
  }

let assign t ~from =
  if t.width <> from.width then invalid_arg "Ccr.assign: width mismatch";
  t.specified <- from.specified;
  t.values <- from.values;
  t.dirty <- -1;
  match (t.wide, from.wide) with
  | None, None -> ()
  | Some w, Some f ->
      Array.blit f.w_spec 0 w.w_spec 0 (Array.length w.w_spec);
      Array.blit f.w_vals 0 w.w_vals 0 (Array.length w.w_vals)
  | _ -> assert false (* same width implies same shape *)

let lookup t c = get t c

(* [word t w]: packed (specified, values) of CCR word [w]; zero past the
   physical width, so an out-of-CCR condition reads as unspecified. *)
let word t w =
  if w = 0 then (t.specified, t.values)
  else
    match t.wide with
    | Some wd when w - 1 < Array.length wd.w_spec ->
        (wd.w_spec.(w - 1), wd.w_vals.(w - 1))
    | Some _ | None -> (0, 0)

(* Mask reproduction of {!Pred.eval}'s unspec-dominant rule: any
   mentioned-but-unspecified condition → [Unspec]; otherwise all
   mentioned value bits must match [c_want]. *)
let evalc t (cp : Pred.compiled) =
  t.evals_mask <- t.evals_mask + 1;
  match cp.Pred.c_wide with
  | None ->
      let m = cp.Pred.c_mask in
      if m land t.specified <> m then Pred.Unspec
      else if (t.values lxor cp.Pred.c_want) land m = 0 then Pred.True
      else Pred.False
  | Some (masks, wants) ->
      let n = Array.length masks in
      let result = ref Pred.True in
      (try
         for w = 0 to n - 1 do
           let m = masks.(w) in
           if m <> 0 then begin
             let spec, vals = word t w in
             if m land spec <> m then begin
               result := Pred.Unspec;
               raise Exit (* Unspec dominates any earlier mismatch *)
             end
             else if (vals lxor wants.(w)) land m <> 0 then
               result := Pred.False
           end
         done
       with Exit -> ());
      !result

let evalc_range t cps ~lo ~hi out =
  for i = lo to hi - 1 do
    out.(i - lo) <-
      (match evalc t cps.(i) with
      | Pred.False -> 0
      | Pred.True -> 1
      | Pred.Unspec -> 2)
  done

(* A top-level scan, not a local closure, so a call allocates nothing. *)
let rec first_true t cps ~lo ~hi =
  if lo >= hi then -1
  else
    match evalc t cps.(lo) with
    | Pred.True -> lo
    | Pred.False | Pred.Unspec -> first_true t cps ~lo:(lo + 1) ~hi

let evals_mask t = t.evals_mask

let all_specified t p =
  (* No [Cond.Set] detour: fold the literal map directly. *)
  Pred.fold_conds (fun c _ acc -> acc && get t c <> Pred.U) p true

let all_specified_c t (cp : Pred.compiled) =
  match cp.Pred.c_wide with
  | None -> cp.Pred.c_mask land t.specified = cp.Pred.c_mask
  | Some (masks, _) ->
      let ok = ref true in
      Array.iteri
        (fun w m ->
          if m <> 0 then
            let spec, _ = word t w in
            if m land spec <> m then ok := false)
        masks;
      !ok

let pp ppf t =
  Format.pp_print_string ppf "{";
  for i = 0 to t.width - 1 do
    if i > 0 then Format.pp_print_string ppf ",";
    Format.pp_print_string ppf
      (match get t (Cond.make i) with
      | Pred.T -> "T"
      | Pred.F -> "F"
      | Pred.U -> "U")
  done;
  Format.pp_print_string ppf "}"
