(** Bounds-checked word-addressed memory with optional demand-mapped pages.

    Two kinds of faults model the paper's exception taxonomy:
    - {b fatal} faults (out-of-bounds, e.g. a NULL/negative pointer
      dereference): the program cannot continue past them;
    - {b recoverable} faults (access to a demand page that is not yet
      mapped, a stand-in for OS page faults): an exception handler maps the
      page and the access is retried — this is what exercises the paper's
      future-condition recovery, where a committed speculative exception is
      handled and the process restarted. *)

type t

type fault =
  | Out_of_bounds of int  (** fatal *)
  | Unmapped of int  (** recoverable by {!handle_fault} *)

exception Fault of fault

val page_size : int

val create : size:int -> t
(** All addresses [0 .. size-1] mapped, every word [0].
    @raise Invalid_argument if [size < 0]. *)

val create_demand : size:int -> unmapped:(int * int) -> t
(** [create_demand ~size ~unmapped:(lo, hi)]: the pages from
    [lo / page_size] to [(hi - 1) / page_size] start unmapped and fault
    until {!handle_fault} (pages past [size] hold no address). An empty
    range, [hi <= lo], unmaps nothing. *)

val read : t -> int -> int
(** @raise Fault on a bad or unmapped address. Unwritten mapped words
    read as [0]. *)

val write : t -> int -> int -> unit
(** [write t addr v]. @raise Fault like {!read}. *)

val peek : t -> int -> int
(** Read without fault side conditions (testing/debug only): unmapped or
    out-of-range addresses read as [0]. *)

val poke : t -> int -> int -> unit
(** Backdoor write used to initialise workload data; maps the page.
    @raise Invalid_argument if the address is outside [0 .. size-1]. *)

val probe : t -> int -> fault option
(** Check whether an access to [addr] would fault, without performing it
    (used by the store buffer to set flag E on speculative stores whose
    address is known bad). *)

val handle_fault : t -> fault -> bool
(** Simulates the OS handler: maps the faulting page for [Unmapped] and
    returns [true]; returns [false] for fatal faults. *)

val is_fatal : fault -> bool
val size : t -> int
val copy : t -> t
(** An independent memory with the same words and mapped pages. *)

val equal : t -> t -> bool
(** Same size and the same words. Page state is ignored: an unmapped page
    holds only zeros, as an unwritten word does. *)

val pp_fault : Format.formatter -> fault -> unit
