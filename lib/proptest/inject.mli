(** Deliberate miscompile injection — the fuzzer's own fire drill.

    A bug kind is applied to compiled {!Psb_machine.Pcode} after the
    scheduler has run, producing exactly the class of silent miscompile
    the differential driver and the static verifier exist to catch. CI
    runs [psb fuzz] with an injection enabled and requires a minimized
    counterexample, proving the harness end-to-end. *)

module Pcode = Psb_machine.Pcode

type t =
  | Sched_order
      (** Swap the first adjacent pair of exit-free bundles in each
          region: issues operations out of dependence order while
          keeping the code structurally well-formed. *)

val all : t list
val name : t -> string
val of_name : string -> (t, string) result

val apply : t -> Pcode.t -> Pcode.t
(** Pure: the input code (which may be shared via the compile cache) is
    never mutated. Regions with no swappable bundle pair pass through
    unchanged. *)
