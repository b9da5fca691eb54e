(** Dependence graph over a scheduling unit, encoding each model's code
    motion legality (§2.1, §3.3, §4.2.2).

    Nodes are the unit's instructions plus its exits; every edge points
    seq-forward, so the graph is a DAG. Latencies on edges may be zero or
    negative (pipeline-squash windows).

    Register dependences assume the compiler renames illegal register
    motions (as the paper's global scheduler does), so:
    - WAR and WAW edges are dropped between instructions on mutually
      exclusive paths (disjoint predicates) — predicated shadow state keeps
      at most one of them;
    - RAW edges from producers the consumer is control-dependent on mark
      the operand for shadow fetch;
    - RAW edges from producers on partially overlapping paths (values
      merging at a join) become {e commit dependences}: the consumer also
      waits for the producer's conditions to resolve and reads the
      sequential state (§4.2.2).

    Memory dependences use a symbolic base+offset analysis. Two distinct
    {e initial-register} roots are assumed not to alias (standing in for
    the reference compiler's alias analysis: workloads place each data
    structure at its own base register; the end-to-end semantic
    equivalence tests validate the assumption on every workload). Computed
    addresses are conservative: they may alias anything.

    Speculation-class edges tie each instruction to the condition-set
    instructions of its own predicate: [No_spec] waits for full resolution,
    [Squash w] may issue up to [w] cycles early, [Buffered] is free. In
    non-predicated models the [Setc] nodes are the branches themselves:
    they execute sequentially and exits fire with them. *)

open Psb_isa
module Machine_model = Psb_machine.Machine_model

type t
(** Nodes and edges in flat int arrays: the edges, collected as
    (src, dst, latency) triples, are stored twice in compressed sparse
    rows (per destination and per source), so walking a node's edges
    reads two arrays and allocates nothing. *)

val n_instrs : t -> int
val n_exits : t -> int
val n_nodes : t -> int
(** Node index space: instruction [uid]s, then [n_instrs + xid]. *)

val build :
  Model.t -> Machine_model.t -> single_shadow:bool -> Runit.t -> t
(** The unit's predicates are ternary masks ({!Psb_isa.Pred.t}), so
    "on compatible paths", "implies" and "equal" are a few word
    operations on the predicates as the unit holds them; a condition's
    [Setc] is found by index ({!Runit.setc_uid}); symbolic addresses
    live in one register environment updated in place; heights are
    computed in decreasing [seq] by merging the instruction and exit
    orders. The edge rules are mirrored by the static verifier
    ([Psb_verify.Verify]). *)

val in_degree : t -> int -> int
(** Number of in-edges of a node (parallel edges counted apart). *)

val iter_in : t -> int -> (int -> int -> unit) -> unit
(** [iter_in g node f] calls [f src latency] on each in-edge. *)

val iter_out : t -> int -> (int -> int -> unit) -> unit
(** [iter_out g node f] calls [f dst latency] on each out-edge. *)

val shadow_srcs : t -> int -> Reg.Set.t
(** Registers instruction [uid] must fetch from the speculative state. *)

val height : t -> int -> int
(** Critical-path height of a node (longest latency path to any sink). *)
