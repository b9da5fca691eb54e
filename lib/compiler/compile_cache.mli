(** Content-addressed compile cache.

    The evaluation sweeps re-ask the driver for the same schedules over
    and over — figure 6 and figure 7 share the [global] column, every
    ablation recompiles [region-pred] on the base machine, the unroll
    study re-profiles the x1 programs figure 8 already covered. Keying
    compiled results on {e content} (not on which experiment asked)
    makes all of that reuse automatic, including across experiments in
    one [bench --json] run and across domains of the parallel pool.

    The key is the MD5 of one binary encoding of everything that
    determines the output of {!Driver.compile}, written in a single pass
    into one buffer:

    - a format version;
    - the program: its entry label, then each block in program order
      with its label, its operations and its terminator, every operand
      and label in full;
    - every field of the {!Model.t} (not just its name);
    - every field of the {!Psb_machine.Machine_model.t};
    - the [single_shadow], [avoid_commit_deps] and [verify] compile
      options ([verify] does not change the emitted code, but a value
      compiled with verification off has proved nothing — serving it to
      a verified caller would skip the check silently);
    - what the compiler observes of the profile, as
      {!Psb_cfg.Branch_predict.fingerprint} appends it: per reachable
      block the prediction, the confidence and each edge probability.

    Every variant starts with a tag byte, every list and string with its
    length, and every int (counts, registers, immediates, offsets,
    fields) is 8 bytes little-endian; floats are written as their exact
    bits ([Int64.bits_of_float]). The encoding is therefore injective:
    structurally equal inputs (say, a program rebuilt from the same
    blocks, or a profile from another run of the same training input)
    key equal, and any difference keys apart (up to MD5 collisions),
    including profiles that differ only past a printed float's digits. The model and machine
    encoders match their records exhaustively, so a new field fails to
    compile until it joins the key. No key is ever persisted.

    The table is guarded by a mutex, so domains of a parallel sweep
    share one cache. Two domains racing on the same missing key both
    compile (compilation is deterministic, so either result is {e the}
    result — and both misses are counted, because both compiles really
    happened); the first insertion wins and is what later hits return.
    Cached values are immutable after construction and safe to share
    across domains. *)

type key = string
(** Hex MD5 digest of the encoding above. Obtain one only via {!key}. *)

val key :
  model:Model.t ->
  machine:Psb_machine.Machine_model.t ->
  single_shadow:bool ->
  avoid_commit_deps:bool ->
  verify:bool ->
  profile:Psb_cfg.Branch_predict.t ->
  Psb_isa.Program.t ->
  key

type 'a t
(** A cache of ['a] values (the driver instantiates ['a = compiled];
    the type is parametric only to keep this module below {!Driver}). *)

val create : unit -> 'a t

val find_or_compile : 'a t -> key -> (unit -> 'a) -> 'a
(** Return the cached value for [key], or run the thunk, cache, and
    return it. The thunk runs outside the cache lock, so concurrent
    misses on distinct keys compile in parallel. *)

type stats = { hits : int; misses : int; entries : int }

val stats : 'a t -> stats

val observe_metrics : 'a t -> Psb_obs.Metrics.t -> unit
(** Export the current counters into a metrics registry as
    [compile_cache_hits], [compile_cache_misses] and
    [compile_cache_entries]. *)
