(** Natural-loop detection. Loop heads are the seeds from which the
    paper's region former grows regions (§3.3). A head is the target of
    a back edge, an edge whose target dominates its source. *)

open Psb_isa

type loop = { head : Label.t; body : Label.Set.t }

val heads : Cfg.t -> Dominance.t -> bool array
(** Per block index ({!Cfg.index}): whether the block heads a loop. *)

val natural_loops : Cfg.t -> Dominance.t -> loop list
(** One loop per head, bodies of same-head back edges merged, ordered by
    reverse post-order of the head. *)

val loop_heads : Cfg.t -> Dominance.t -> Label.t list
(** The heads in reverse post-order. *)

val in_loop : loop -> Label.t -> bool
