(** Control-flow graph over the basic blocks of a scalar program.

    Blocks are numbered once, by their position in [program.blocks] —
    the numbering of {!Psb_isa.Decoded} and {!Psb_isa.Trace} — and the
    graph is kept over those ints: each block's successors and
    predecessors, and the reverse post-order from the entry, are int
    arrays. The label-facing functions read the same arrays through one
    label → index table. *)

open Psb_isa

type t

val of_program : Program.t -> t
val program : t -> Program.t
val entry : t -> Label.t

(** {2 By block index} *)

val nblocks : t -> int
(** Blocks in the program, reachable or not: indices run
    [0 .. nblocks - 1]. *)

val index : t -> Label.t -> int
(** @raise Not_found if no block carries the label. *)

val label : t -> int -> Label.t
val block_at : t -> int -> Program.block

val succs_at : t -> int -> int array
(** In {!Psb_isa.Program.successors} order, so a branch's [if_true] is at
    position 0 and its [if_false] at 1, even when both name one block.
    Do not mutate. *)

val preds_at : t -> int -> int array
(** The block's distinct reachable predecessors, the latest in reverse
    post-order first ([[||]] for an unreachable block). Do not mutate. *)

val rpo_order : t -> int array
(** The reachable blocks in reverse post-order from the entry, which is
    at position 0. Successors are visited in
    {!Psb_isa.Program.successors} order. Do not mutate. *)

val rpo_pos : t -> int -> int
(** A block's position in {!rpo_order}; [-1] if it is unreachable. *)

(** {2 By label} *)

val block : t -> Label.t -> Program.block
(** @raise Not_found if no block carries the label. *)

val succs : t -> Label.t -> Label.t list
val preds : t -> Label.t -> Label.t list
(** {!preds_at}'s order. *)

val rpo : t -> Label.t list
val reachable : t -> Label.t -> bool
val exits : t -> Label.t list
(** Blocks terminated by [Halt]. *)

val num_blocks : t -> int
(** Reachable blocks. *)
