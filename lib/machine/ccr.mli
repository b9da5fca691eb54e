(** Condition code register: [K] branch conditions, each true, false or
    unspecified. Conditions are region-local: {!reset} is applied by the
    hardware on every region transition (§3.3).

    Storage is packed — one [specified] and one [values] bit per
    condition, in one word each — so a {!Psb_isa.Pred.t} evaluates via
    {!evalc} in a handful of word operations, mirroring the per-entry
    ternary-mask comparators of §4.2.1. [K] is at most
    {!Psb_isa.Pred.word_bits}, the conditions a predicate can name. *)

open Psb_isa

type t

val create : width:int -> t
(** @raise Invalid_argument unless [0 < width <= Pred.word_bits]. *)

val get : t -> Cond.t -> Pred.cond_value
(** Shaped for {!Psb_isa.Pred.eval}.
    @raise Invalid_argument if the condition is outside the CCR. *)

val set : t -> Cond.t -> bool -> unit
(** Also marks the condition in the dirty mask ({!take_dirty}). *)

val reset : t -> unit
val copy : t -> t
val assign : t -> from:t -> unit
(** Overwrite the contents of [t] with those of [from]. {!reset} and
    [assign] mark every bit of the dirty mask. *)

val take_dirty : t -> int
(** The bitmask of conditions written since the previous call (or [-1]
    — everything — after {!create}, {!reset} or {!assign}), clearing it.
    The machine takes it once per cycle and hands it to the
    register-file and store-buffer ticks as their [~dirty] gate: an
    entry whose mask misses every dirty bit cannot have resolved since
    it was last examined. *)

val evalc : t -> Pred.t -> Pred.value
(** Mask evaluation against the packed words: [Unspec] if any mentioned
    condition is unspecified, else [True] iff all values match. Zero
    allocation; counts into {!evals_mask}. A condition beyond the CCR
    width reads as unspecified (the compiler and verifier reject such
    predicates before they reach the machine). *)

val evalc_range : t -> Pred.t array -> lo:int -> hi:int -> int array -> unit
(** [evalc_range t ps ~lo ~hi out] stores {!evalc} of each of
    [ps.(lo .. hi-1)] into [out.(0 .. hi-lo-1)] as an int: [0] for
    [False], [1] for [True], [2] for [Unspec]. A bundle's operation
    predicates in one call; counts into {!evals_mask} as [hi - lo] calls
    of {!evalc} would. *)

val first_true : t -> Pred.t array -> lo:int -> hi:int -> int
(** The first [i] in [lo .. hi-1] whose [ps.(i)] evaluates [True], or
    [-1]: a bundle's exits in one call. Evaluates (and counts) the
    predicates up to that one, as a scan with {!evalc} would. *)

val evals_mask : t -> int
(** {!evalc} calls since {!create}, for observability. *)
