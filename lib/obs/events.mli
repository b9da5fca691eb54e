(** Structured speculation event log: a fixed-capacity ring buffer of
    typed lifecycle events, cheap enough to leave compiled into every
    hot path.

    Where {!Metrics} aggregates and {!Trace_event} renders, this module
    {e records}: each event is a (cycle, kind, a, b) quadruple kept in
    flat integer arrays, so emission allocates nothing, and neither does
    {!intern} once a name is known — a machine run with a ring attached
    allocates what it allocates without one. When
    the ring fills, the oldest events are overwritten and counted as
    dropped; consumers that need a complete stream (the
    {!Spec_profile} scorecards) size the capacity to the run and check
    {!dropped} is zero.

    Every instrumented entry point takes [?events] and does nothing when
    it is absent, mirroring the [?metrics] convention — absent
    instrumentation costs one pointer test.

    {2 Event vocabulary}

    The [a]/[b] payloads are plain integers whose meaning is fixed per
    kind (region names go through the {!intern} table):

    - [Region_enter]: [a] = region name id; [b] = 0
    - [Region_exit]: [a] = region name id being left; [b] = target
      region id, or [-1] for halt
    - [Pred_true] / [Pred_false]: a condition write specified buffered
      predicates; [a] = condition index
    - [Issue]: one bundle issued, in normal or recovery mode; [a] =
      operation slots that executed, [b] = slots squashed (predicate
      false). The bundle's index in its region is the number of [Issue]
      events since the last [Region_enter] or [Recovery_start]
    - [Op_issue]: one executed operation slot, after its bundle's
      [Issue]; [a] = bundle index, [b] = 2 × slot + 1 if issued
      speculatively, else 2 × slot (slots count the bundle's operations,
      exits excluded), so the pcode names the operation
    - [Stall]: issue held this cycle; [a] = 0 on a shadow-storage
      conflict, 1 on a full store buffer
    - [Recovery_start]: exception detection entered recovery mode; [a] =
      the EPC, the bundle index where recovery ends
    - [Recovery_end]: the PC reached the EPC; the future condition became
      the current one
    - [Sb_occupancy]: store-buffer entries after the cycle's commit and
      squash resolution, emitted only when the count changed; [a] =
      entries
    - [Shadow_write]: a speculative result buffered into the shadow
      register file; [a] = register index, [b] = value
    - [Shadow_commit] / [Shadow_squash]: a buffered register resolved;
      [a] = register index; for squashes [b] = 0 when the predicate
      specified false, [1] when the state was invalidated wholesale
      (region exit, exception detection)
    - [Sb_append]: a store entered the store buffer; [a] = address,
      [b] = 1 if speculative else 0
    - [Sb_forward]: a load was satisfied from the buffer; [a] = address,
      [b] = forwarded value
    - [Sb_commit]: a speculative entry's predicate specified true
      (W cleared); [a] = address
    - [Sb_flush]: an entry drained to the D-cache; [a] = address,
      [b] = value
    - [Sb_squash]: [a] = address; [b] = 0 predicate-false, 1 invalidated
    - [Fault_deferred]: a speculative fault was buffered with its
      predicate; [a] = faulting address, or [-1] for arithmetic faults
    - [Fault_raised]: a fault was actually handled or proved fatal;
      [a] = address or [-1], [b] = 1 if recovered, 0 if fatal
    - [Rob_commit]: a reorder-buffer entry retired in program order;
      [a] = fetch sequence number (strictly increasing over a run),
      [b] = ROB slot index
    - [Rob_squash]: an entry was flushed before retiring; [a] = fetch
      sequence number, [b] = 0 on a branch mispredict, [1] on a
      commit-time fault restart *)

type kind =
  | Region_enter
  | Region_exit
  | Pred_true
  | Pred_false
  | Issue
  | Shadow_write
  | Shadow_commit
  | Shadow_squash
  | Sb_append
  | Sb_forward
  | Sb_commit
  | Sb_flush
  | Sb_squash
  | Fault_deferred
  | Fault_raised
  | Rob_commit
  | Rob_squash
  | Op_issue
  | Stall
  | Recovery_start
  | Recovery_end
  | Sb_occupancy

val kind_name : kind -> string
(** Stable lower-snake name ([region_enter], [sb_flush], ...) used in
    JSON. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default [65536]) fixes the ring size up front; no
    further allocation ever happens. @raise Invalid_argument when
    [capacity < 1]. *)

val capacity : t -> int

val emit : t -> cycle:int -> kind -> a:int -> b:int -> unit
(** O(1), allocation-free. Overwrites the oldest event when full. *)

val length : t -> int
(** Events currently held (≤ capacity). *)

val total : t -> int
(** Events ever emitted (since the last {!clear}). *)

val dropped : t -> int
(** Events overwritten because the ring was full. [total - dropped =
    length] until the first wrap. *)

val clear : t -> unit
(** Empty the ring and reset all counters; interned names survive. *)

val iter : t -> (int -> kind -> int -> int -> unit) -> unit
(** [iter t f] calls [f cycle kind a b] for each held event, oldest
    first. *)

val intern : t -> string -> int
(** Find-or-create a small integer id for a name (region labels). Ids
    are dense from 0 in first-intern order; the table is tiny (one entry
    per static region), looked up linearly without allocating, and never
    reset by {!clear}. *)

val name : t -> int -> string
(** The interned name for an id; ["?<id>"] for ids never interned
    (including [-1], which conventionally means "none"/halt). *)

val to_json : t -> Json.t
(** [{"capacity", "total", "dropped", "names": [..in id order..],
     "events": [{"cycle", "kind", "a", "b"}...]}] — events oldest
    first. *)
