(** Out-of-order reorder-buffer backend — the modern rival model.

    Where the predicating VLIW machine buffers speculative state in
    predicated shadow registers and a predicated store buffer, this
    backend runs the {e same scalar ISA} on the classic dynamic
    alternative: a circular reorder buffer with register renaming,
    following the compact hardware blueprint cited in ROADMAP
    ([elgron-eon__eonv/commit.v]) — a head/tail circular buffer, a
    per-architectural-register rename map ([rmap], valid bits [rrob]),
    completion notification that wakes the consumers waiting on a
    result, and exceptions held in entries and raised only at commit.

    Per cycle, in order:

    + {e commit}: up to [issue_width] completed entries retire from the
      head in program order (stores bounded by [dcache_ports]); stores
      write the D-cache, [Out] values are emitted, architectural
      registers and conditions are updated. A fault held in the head
      entry is raised here: recoverable faults (demand paging) are
      handled, the whole buffer is flushed and fetch restarts at the
      faulting instruction; fatal faults end the run.
    + {e complete}: the entries whose latency ends this cycle complete,
      oldest first. The result is computed (loads forward from the
      youngest older store to the same address, else read the D-cache;
      faults are buffered in the entry, never raised) and handed to the
      operands waiting on the entry. A resolved branch that disagrees
      with its prediction squashes all younger entries, rebuilds the
      rename map from the survivors and redirects fetch.
    + {e issue}: ready entries (waiting, every operand ready) begin
      executing, oldest first, bounded by the per-class function-unit
      counts; a load additionally waits until every older store has
      resolved its address (total store-queue disambiguation).
    + {e dispatch}: up to [issue_width] instructions enter at the tail
      along the predicted path (a 2-bit saturating counter per branch
      block), capturing each operand as a value or as the producing
      slot's tag; [Jmp]s are followed for free; a full buffer stalls
      fetch.

    The buffer keeps its entries in per-field int banks indexed by slot,
    like the [rob_busy]/[rob_typ]/[rob_rno]/[rob_val] registers of a
    hardware ROB. An entry holds only what dispatch learns: fetch
    sequence number, block visit, block, the index of its op in the
    {!Psb_isa.Decoded} arrays (which hold the static fields: offset,
    opcodes, destination, branch targets), class tag, prediction, a state
    (waiting, executing or done), result and address (an entry is live
    while it sits between the head and the tail); each operand is a pair of banks, the producing slot it waits on ([-1] once
    ready) and its value. A buffered fault goes in an option bank written
    only when an entry faults.

    No stage walks the buffer. Four structures find each stage's work:
    an age-ordered {e ready list} of the waiting entries whose operands
    are ready, which issue walks until the units run out; a {e completion
    wheel}, one age-ordered bucket of executing entries per completion
    cycle (modulo a power of two above the longest latency); a {e store
    queue} of the live stores in age order, which answers both whether a
    load must wait for an older store and which store it forwards from;
    and per-entry {e wakeup lists} of the operands waiting on it, so a
    completion visits only its own consumers. A squashed consumer
    unlinks its operands from its producers' lists before its slot can
    be reused, and since a squash always takes the youngest entries, the
    ready list, the buckets and the store queue each lose a suffix. So
    dispatch, issue, completion and commit allocate nothing per cycle or
    per instruction. Per-run set-up is O([rob_size] + registers +
    blocks).

    Because stores, outputs and faults only touch architectural state
    at in-order commit, a squashed wrong-path entry can never write
    memory, emit output, map a demand page or raise — so the
    architectural results (outcome, output, final registers, final
    memory, handled-fault count) are byte-identical to the DSL
    interpreter ({!Psb_isa.Interp}), a property the differential test
    stack enforces on every fuzz trial. *)

open Psb_isa

type stats = {
  fetched : int;  (** entries dispatched, wrong paths included *)
  committed : int;  (** entries retired in program order *)
  squashed : int;  (** entries flushed on mispredict or fault restart *)
  branches : int;  (** branch entries retired *)
  mispredicts : int;
  loads_forwarded : int;  (** loads satisfied from an older store entry *)
  squashed_faults : int;
      (** faults buffered in squashed entries — discarded, never raised *)
  fault_restarts : int;  (** commit-time fault flushes (incl. stale retries) *)
  rob_max_occupancy : int;
  rob_full_stalls : int;  (** dispatch-blocked cycles with a full buffer *)
}

(** {2 Cycle accounting}

    Every simulated cycle is attributed to exactly one category, so the
    breakdown always sums to {!result.cycles} (test-enforced across the
    whole suite × machine models, mirroring the VLIW machine's
    accounting). The priority is the order of the fields below. *)

type breakdown = {
  rb_fault : int;  (** commit-time fault handling and restart flushes *)
  rb_commit : int;  (** cycles that retired at least one entry *)
  rb_flush : int;  (** redirect stall after a mispredict flush *)
  rb_mem : int;
      (** head is a memory operation still waiting (disambiguation,
          load latency) *)
  rb_frontend : int;  (** buffer empty, refilling from fetch *)
  rb_exec : int;  (** otherwise: in-flight work executing or waiting *)
}

val breakdown_total : breakdown -> int

val breakdown_fields : breakdown -> (string * int) list
(** Category name → cycles, in priority order (for serialisation). *)

val pp_breakdown : Format.formatter -> breakdown -> unit
(** Table with per-category percentages. *)

type result = {
  outcome : Interp.outcome;
  output : int list;
  cycles : int;
  dyn_instrs : int;  (** committed entries (operations and branches) *)
  regs : int Reg.Map.t;  (** registers ever written, as {!Interp.result} *)
  faults_handled : int;
  stats : stats;
  breakdown : breakdown;
}

val default_fuel : int
(** Cycle budget (60M, like the VLIW machine). *)

val run :
  ?fuel:int ->
  ?events:Psb_obs.Events.t ->
  ?metrics:Psb_obs.Metrics.t ->
  ?decoded:Decoded.t ->
  model:Machine_model.t ->
  regs:(Reg.t * int) list ->
  mem:Memory.t ->
  Program.t ->
  result
(** [fuel] bounds the cycle count. [mem] is mutated (at commit only).
    The machine draws [issue_width], function-unit counts, latencies,
    [dcache_ports], [transition_penalty] and [rob_size] from [model] —
    the same capacities the VLIW machine runs under, so the two
    backends are compared under identical cycle accounting.

    Fetch dispatches straight from the flat {!Psb_isa.Decoded} arrays
    (block-indexed branch-predictor counters, no [Label] hashing on the
    per-cycle path). [decoded] supplies a prebuilt form so repeated
    runs of one program decode once; when absent the program is decoded
    on entry. It must have been built from exactly this program.
    @raise Invalid_argument if [decoded] was decoded from a different
    program value ({!Psb_isa.Decoded.check_source}).

    [events] records the retirement timeline into the structured ring:
    one [Region_enter] per committed-path block visit (commit-ordered,
    so per-region residencies telescope to the cycle total and the
    {!Psb_obs.Spec_profile} fold reconciles), [Rob_commit] per retired
    entry ([a] = fetch sequence number — strictly increasing, the
    program-order witness), [Rob_squash] per flushed entry, and
    [Fault_deferred]/[Fault_raised] for the buffered-exception
    lifecycle. Absent, instrumentation costs one pointer test.

    [metrics] collects, under the [rob_] prefix: committed operations
    by class ([rob_ops{class=...}]), cycle and instruction totals, the
    cycle-accounting categories ([rob_cycles{category=...}]), and
    mispredict/flush counters. *)
