(** Predicates: conjunctions of (possibly negated) branch conditions.

    The paper restricts predicate expressions to an ANDed operation with
    negation (e.g. [c1 & !c2 & c3]) so that a predicate can be encoded as a
    ternary vector over the CCR entries — one of required-true ([1]),
    required-false ([0]) or don't-care ([X]) per condition — and evaluated
    by a simple masked-match operation (three gate delays, §4.2.1). *)

type t

type value = True | False | Unspec
(** Result of evaluating a predicate against the CCR. *)

type cond_value = T | F | U
(** Value of a single branch condition: true, false, or not yet specified. *)

val always : t
(** The empty conjunction, written [alw] in the paper: always true. *)

val is_always : t -> bool

val of_list : (Cond.t * bool) list -> t
(** [of_list [(c0, true); (c2, false)]] is the predicate [c0 & !c2].
    @raise Invalid_argument if the same condition appears with both
    polarities. *)

val conj : t -> Cond.t -> bool -> t
(** [conj p c v] is [p & (c = v)].
    @raise Invalid_argument if [p] already requires [c = not v]. *)

val literals : t -> (Cond.t * bool) list
(** Sorted by condition index. *)

val conds : t -> Cond.Set.t

val fold_conds : (Cond.t -> bool -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the literals in condition order, without materialising a
    set or list (the allocation-free counterpart of {!conds}). *)

val iter_conds : (Cond.t -> bool -> unit) -> t -> unit

val arity : t -> int
(** Number of branch conditions the predicate depends on. *)

val requires : t -> Cond.t -> bool option
(** [requires p c] is [Some v] if [p] contains the literal [c = v]. *)

val count_conds : (Cond.t -> bool) -> t -> int
(** [count_conds f p] is the number of distinct conditions of [p]
    satisfying [f] — e.g. the number of still-unresolved conditions at a
    given cycle, the quantity bounded by [max_spec_conds]. *)

val max_cond : t -> Cond.t option
(** Highest condition referenced, or [None] for [alw]. Used to check a
    predicate against the physical CCR width. *)

val flip : t -> Cond.t -> t
(** [flip p c] negates the polarity of the literal on [c], yielding a
    predicate disjoint with [p] (they disagree on [c]).
    @raise Invalid_argument if [p] does not mention [c]. *)

val eval : t -> (Cond.t -> cond_value) -> value
(** Hardware evaluation rule (§3.2): if any required condition is
    unspecified the result is [Unspec] regardless of the other literals;
    otherwise [True] iff every literal matches. The rule is a pure
    function of the literal {e set} — deliberately independent of the
    predicate's internal representation — so the compiled mask kernel
    ({!Ccr.evalc}) reproduces it bit-exactly. *)

val eval_early_false : t -> (Cond.t -> cond_value) -> value
(** Stricter rule used in ablations: a single mismatching specified literal
    makes the predicate [False] even while other literals are unspecified.
    Semantically equivalent (the state is squashed either way) but frees
    shadow storage earlier. *)

val implies : t -> t -> bool
(** [implies p q]: whenever [p] is true, [q] is true (the literals of [q]
    are a subset of those of [p]). *)

val disjoint : t -> t -> bool
(** [disjoint p q]: [p] and [q] cannot both be true (they contain a
    condition with opposite polarities). Instructions with disjoint
    predicates lie on mutually exclusive control paths. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val rename : (Cond.t -> Cond.t) -> t -> t
(** Rename the conditions (used to map virtual conditions onto the [K]
    physical CCR entries of a region).
    @raise Invalid_argument if the renaming merges two literals with
    opposite polarities. *)

val word_bits : int
(** Number of condition indices a single packed word covers
    ([Sys.int_size]). *)

type compiled = private {
  c_source : t;  (** the predicate this was compiled from *)
  c_mask : int;  (** bit [i] set iff condition [i] is mentioned *)
  c_want : int;  (** required value of every mentioned bit *)
  c_wide : (int array * int array) option;
      (** [(masks, wants)] per word for predicates reaching condition
          indices [>= word_bits]; word 0 aliases [c_mask]/[c_want].
          [None] for the (overwhelmingly common) single-word case. *)
}
(** A predicate compiled to the paper's ternary-mask comparator form
    (§4.2.1): one required/mentioned bit pair per condition, so that
    evaluation against a packed CCR is a handful of word operations with
    zero allocation. Compiled once per static instruction (at pcode
    construction); evaluated every cycle by {!Ccr}-side hardware mirrors. *)

val compile : t -> compiled

val disjoint_c : compiled -> compiled -> bool
val implies_c : compiled -> compiled -> bool
val equal_c : compiled -> compiled -> bool
(** {!disjoint}, {!implies} and {!equal} of the source predicates,
    computed on the masks: disjoint is
    [(m1 land m2) land (w1 lxor w2) <> 0], implication and equality are
    mask tests of the same kind. Predicates reaching past [word_bits]
    conditions fall back to the literal maps. *)

val compiled_always : compiled
(** [compile always], shared. *)

val source : compiled -> t

val compiled_fits : width:int -> compiled -> bool
(** Whether every mentioned condition index is [< width] — the mask form
    of the CCR-width check ([mask land ones(width) = mask]). *)

val to_vector : width:int -> t -> string
(** Ternary-vector encoding over CCR entries [0 .. width-1], e.g. ["1X0"].
    @raise Invalid_argument if a condition index is [>= width]. *)

val pp : Format.formatter -> t -> unit
(** Prints [alw], or the conjunction, e.g. [c0&!c2]. *)

val pp_value : Format.formatter -> value -> unit
