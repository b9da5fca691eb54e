(** Static branch prediction.

    The paper drives trace formation, region growth and the boosting model
    with static (profile-based) prediction. With a profile we predict the
    majority direction; without one we fall back to the classic
    backward-taken/forward-not-taken heuristic.

    A predictor is tabulated once, when it is made: per block index
    ({!Cfg.index}) the predicted direction, its confidence and the
    probability of each successor position ({!Cfg.succs_at}); every
    query, and {!fingerprint}, reads those tables. *)

open Psb_isa

type t

val of_trace : Cfg.t -> Trace.t -> t
val heuristic : Cfg.t -> Dominance.t -> t

val cfg : t -> Cfg.t
(** The CFG the predictor was tabulated over. *)

val predict_at : t -> int -> bool
(** {!predict} by block index. *)

val edge_probability_at : t -> int -> int -> float
(** [edge_probability_at t i pos]: the probability that control leaving
    block [i] goes to its successor at position [pos] of
    {!Cfg.succs_at}. A branch whose two arms name one block holds the
    summed probability at both positions, as {!edge_probability} gives
    it. *)

val predict : t -> Label.t -> bool
(** Predicted direction of the branch terminating block [l]
    ([true] = [if_true]). Blocks without a branch predict [true]. *)

val confidence : t -> Label.t -> float
(** Probability that the prediction is correct ([0.5] if unknown,
    [1.0] for non-branches). *)

val edge_probability : t -> Label.t -> Label.t -> float
(** [edge_probability t src dst]: estimated probability that control
    leaving [src] goes to [dst]. *)

val fingerprint : Buffer.t -> t -> unit
(** Append to the buffer everything the compiler can observe of this
    profile, in binary: the number of reachable blocks, then per block in
    the CFG's reverse post-order its label, the predicted direction
    (['T'] or ['F']), the confidence, and for each successor in
    {!Psb_isa.Program.successors} order its label and the edge
    probability. Counts and label lengths are 8-byte little-endian ints;
    every float is written as its exact bits ([Int64.bits_of_float]), so
    two profiles encode alike only if the compiler would read exactly
    the same numbers from them. Profiles with equal encodings produce
    identical schedules — the compile cache keys on this. *)
