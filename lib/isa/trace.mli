(** Dynamic execution profiles derived from an interpreter block trace.

    This is the reproduction's stand-in for the [pixie] statistics the
    paper relies on: per-block and per-edge execution counts, profile-based
    static branch prediction, and the Table-3 metric (accuracy of
    predicting [n] successive branches). *)

type t

val of_blocks : Program.t -> int array -> t
(** Count a block trace given as positions in [program.blocks] (the
    numbering of [Interp.result.block_trace]). The walk does no
    per-block lookup.
    @raise Invalid_argument if an index lies outside the program. *)

val of_result : Program.t -> Interp.result -> t
(** [of_blocks] over the run's [block_trace]. *)

val block_count : t -> Label.t -> int
val edge_count : t -> src:Label.t -> dst:Label.t -> int
val dynamic_branches : t -> int

val hot_blocks : ?limit:int -> t -> (Label.t * int) list
(** Blocks by descending execution count (ties broken by label name) —
    the hot-block histogram behind [psb profile]. [limit] keeps the top
    [n] entries; all blocks by default. *)

val taken_fraction : t -> Label.t -> float option
(** For a block ending in [Br], the fraction of executions that went to
    [if_true]; [None] if the block never executed or is not a branch. *)

val predict : t -> Label.t -> bool
(** Profile-based static prediction for a branch block: the majority
    direction ([true] = [if_true]); defaults to [true] when unseen. *)

val prediction_accuracy : t -> float
(** Fraction of dynamic branches predicted correctly by {!predict}. *)

val successive_accuracy : t -> int -> float
(** [successive_accuracy t n]: fraction of length-[n] windows of
    consecutive dynamic branches in which all [n] are predicted correctly
    (Table 3). [1.0] when there are fewer than [n] dynamic branches. *)
