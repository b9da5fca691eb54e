(** Readers of the VLIW machine's event ring ({!Psb_obs.Events}): the
    text timeline and a Chrome trace-event document
    ({!Psb_obs.Trace_event}). Both resolve each event against the run's
    {!Pcode.t} — the region from the last [Region_enter], the bundle and
    operation from [Issue] and [Op_issue] — and show the same events:
    issue, stalls, condition writes, the commit and squash of buffered
    state, exits, exception detection and recovery end, and store-buffer
    occupancy changes. Buffer traffic, faults and wholesale invalidation
    squashes stay in the ring.

    A ring that overflowed lost the run's oldest events: the readers
    start at the first [Region_enter] still held, and the trace document
    is marked truncated.

    Trace tracks (open the JSON in Perfetto, [ui.perfetto.dev], or
    [chrome://tracing]; one simulated cycle renders as 1 µs):
    - [issue] — one span per issued bundle (args: region, pc, executed /
      squashed / speculative slot counts), instant markers for region
      exits and stalls;
    - [alu0..], [br], [ld0..], [st0..] — one lane per functional unit;
      each executed operation is a span lasting its latency, suffixed
      [.s] when issued speculatively;
    - [recovery] — one span per exception-recovery episode (detection →
      recovery done);
    - [ccr] — condition writes as instant markers;
    - [shadow-regfile] — speculative commits and squashes;
    - [store-buffer] — store commits/squashes, plus an occupancy counter
      series rendered as an area chart;
    - [spec-commits] / [spec-squashes] — cumulative counter series over
      all buffered speculative state (shadow registers + store buffer);
      their slopes make squash-heavy phases visible at a glance. *)

val iter_lines :
  model:Machine_model.t -> Pcode.t -> Psb_obs.Events.t ->
  (int -> string -> unit) -> unit
(** [iter_lines ~model code ring f] calls [f cycle line] for each shown
    event, oldest first: [issue L4[0]: 2 ops (1 spec, 0 squashed)],
    [op.s r2 = sub r2 1 (latency 1)], [commit r5], [c0 := true], ...
    [model] and [code] must be the run's. *)

type t

val of_events :
  ?limit:int -> model:Machine_model.t -> Pcode.t -> Psb_obs.Events.t -> t
(** The trace document of a run recorded in [ring]. [limit] caps the
    number of recorded trace events (default 2_000_000) so tracing a
    pathological run cannot exhaust memory; past the cap, events are
    dropped and {!truncated} reports it. *)

val truncated : t -> bool
(** The trace hit its [limit], or the ring dropped events. *)

val to_json : ?result:Vliw_sim.result -> t -> Psb_obs.Json.t
(** The trace document. When [result] is given, outcome, cycle count and
    the cycle-accounting breakdown are attached as trace metadata. *)
