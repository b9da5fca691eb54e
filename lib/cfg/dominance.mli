(** Dominators.

    The compiler needs dominance to find back edges (an edge whose
    target dominates its source), hence the loop heads where region
    growth stops, and for the backward-taken branch heuristic. The
    equivalent blocks of §3.3 footnote 2 need no post-dominance test:
    [Psb_compiler.Runit] merges the predicates of a join's incoming
    paths, and complementary literals cancel, so a join equivalent to an
    earlier block gets that block's predicate and a single copy. *)

open Psb_isa

type t

val compute : Cfg.t -> t

val dominates : t -> Label.t -> Label.t -> bool
(** [dominates t a b]: every path from entry to [b] passes through [a].
    Reflexive. *)

val idom : t -> Label.t -> Label.t option
(** Immediate dominator ([None] for the entry). *)

val dominance_frontier : t -> Label.t -> Label.t list
