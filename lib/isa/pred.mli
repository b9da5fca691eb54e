(** Predicates: conjunctions of (possibly negated) branch conditions.

    The paper restricts predicate expressions to an ANDed operation with
    negation (e.g. [c1 & !c2 & c3]) so that a predicate can be encoded as a
    ternary vector over the CCR entries — one of required-true ([1]),
    required-false ([0]) or don't-care ([X]) per condition — and evaluated
    by a simple masked-match operation (three gate delays, §4.2.1).

    A predicate {e is} that vector, packed into two machine words over
    conditions [c0 .. c(word_bits - 1)]: the paper's [K] is 4 on the base
    machine and at most 8 in Figure 8. The relations below are a few
    word operations, and the machine's evaluation against its packed
    CCR ([Ccr.evalc]) is two ANDs and two compares. *)

type t = private {
  mask : int;  (** bit [i] set iff the predicate mentions condition [i] *)
  want : int;
      (** the required value of every mentioned bit; zero outside [mask] *)
}
(** Built only by {!always}, {!conj} and {!of_list}. *)

type value = True | False | Unspec
(** Result of evaluating a predicate against the CCR. *)

type cond_value = T | F | U
(** Value of a single branch condition: true, false, or not yet specified. *)

val word_bits : int
(** Number of conditions a predicate can name ([Sys.int_size]):
    conditions [0 .. word_bits - 1]. *)

val always : t
(** The empty conjunction, written [alw] in the paper: always true. *)

val is_always : t -> bool

val of_list : (Cond.t * bool) list -> t
(** [of_list [(c0, true); (c2, false)]] is the predicate [c0 & !c2].
    @raise Invalid_argument as {!conj} does. *)

val conj : t -> Cond.t -> bool -> t
(** [conj p c v] is [p & (c = v)].
    @raise Invalid_argument if [p] already requires [c = not v], or if
    [c] is [word_bits] or higher. *)

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

val flip : t -> Cond.t -> t
(** [flip p c] negates the polarity of the literal on [c], yielding a
    predicate disjoint with [p] (they disagree on [c]).
    @raise Invalid_argument if [p] does not mention [c]. *)

val eval : t -> (Cond.t -> cond_value) -> value
(** Hardware evaluation rule (§3.2): if any required condition is
    unspecified the result is [Unspec] regardless of the other literals;
    otherwise [True] iff every literal matches. [lookup] is asked about
    the mentioned conditions in ascending order, up to the first
    unspecified one; the walk allocates nothing. The machine evaluates
    against its packed CCR with [Ccr.evalc], the same rule on the words;
    this form serves the hypothetical states of exception detection. *)

val implies : t -> t -> bool
(** [implies p q]: whenever [p] is true, [q] is true (the literals of [q]
    are a subset of those of [p]). *)

val disjoint : t -> t -> bool
(** [disjoint p q]: [p] and [q] cannot both be true (they contain a
    condition with opposite polarities). Instructions with disjoint
    predicates lie on mutually exclusive control paths. *)

val equal : t -> t -> bool

val fits : width:int -> t -> bool
(** Whether every mentioned condition index is [< width]: the CCR-width
    check, [mask land ones(width) = mask]. *)

val to_vector : width:int -> t -> string
(** Ternary-vector encoding over CCR entries [0 .. width-1], e.g. ["1X0"].
    @raise Invalid_argument if a condition index is [>= width]. *)

val pp : Format.formatter -> t -> unit
(** Prints [alw], or the conjunction, e.g. [c0&!c2]. *)
