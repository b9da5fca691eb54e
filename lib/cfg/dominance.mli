(** Dominators.

    The compiler needs dominance to find back edges (an edge whose
    target dominates its source), hence the loop heads where region
    growth stops, and for the backward-taken branch heuristic. The
    equivalent blocks of §3.3 footnote 2 need no post-dominance test:
    [Psb_compiler.Runit] merges the predicates of a join's incoming
    paths, and complementary literals cancel, so a join equivalent to an
    earlier block gets that block's predicate and a single copy.

    {!compute} finds every reachable block's immediate dominator with
    Cooper, Harvey and Kennedy's iterative algorithm over reverse
    post-order positions ("A Simple, Fast Dominance Algorithm", 2001)
    and keeps them in one int array; {!dominates} walks that idom chain.
    Unreachable blocks dominate nothing and are dominated by nothing. *)

open Psb_isa

type t

val compute : Cfg.t -> t

val dominates_at : t -> int -> int -> bool
(** {!dominates} by block index ({!Cfg.index}). *)

val dominates : t -> Label.t -> Label.t -> bool
(** [dominates t a b]: every path from entry to [b] passes through [a].
    Reflexive. *)

val idom : t -> Label.t -> Label.t option
(** Immediate dominator ([None] for the entry and unreachable blocks). *)
