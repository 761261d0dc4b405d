(** Global logs.

    The global log [l] is the list of observable events recording all shared
    operations, in chronological order (Sec. 3.1).  The paper writes
    [l • e] for "cons-ing" an event to the log; internally we store the most
    recent event first, which makes {!append} O(1) and makes replay functions
    natural structural recursions (Fig. 8). *)

type t

val empty : t

val append : Event.t -> t -> t
(** [append e l] is the paper's [l • e]. *)

val append_all : Event.t list -> t -> t
(** [append_all es l] appends [es] in order: the head of [es] happens
    first. *)

val newest_first : t -> Event.t list
(** Events, most recent first (the representation order used by the paper's
    replay functions, which match on [e :: l']). *)

val chronological : t -> Event.t list
(** Events in the order they happened. *)

val length : t -> int

val filter : (Event.t -> bool) -> t -> t
(** Keep only the events satisfying the predicate (chronological order is
    preserved).  Used by simulation relations that erase low-level events. *)

val map_events : (Event.t -> Event.t list) -> t -> t
(** [map_events f l] rewrites each event [e] into the (possibly empty)
    sequence [f e], preserving order.  This is how the paper's simulation
    relations on logs (e.g. [R1] mapping [i.hold] to [i.acq] and other
    lock-related events to empty ones, Sec. 2) are implemented. *)

val count : (Event.t -> bool) -> t -> int

val equal : t -> t -> bool

val mix : int -> int -> int
(** [mix acc k] is one multiply-xor avalanche round: xor [k] into the
    accumulator, multiply by an odd constant, fold the high bits back
    down, and mask to [max_int].  This is the round behind {!hash};
    {!Fingerprint} folds structural data through the same mixer so
    cache keys and log hashes diffuse identically. *)

val hash : t -> int
(** Order-sensitive structural hash, compatible with {!equal}.  Each
    event is folded through a multiply-xor avalanche round and the length
    is mixed in by a second finalization pass, so permuted logs — the
    bulk of what the DPOR harness deduplicates — spread across buckets
    instead of chaining. *)

val dedup : ?hash:(t -> int) -> t list -> t list
(** Distinct logs in first-occurrence order; hashed, so linear in the
    total number of events (the verification harness counts distinct
    interleavings over thousands of runs).  Hash collisions cost time,
    never correctness ({!equal} decides within a bucket); [?hash]
    (default {!hash}) exists so tests can force the collision path. *)

val subset : ?hash:(t -> int) -> t list -> t list -> bool
(** [subset a b]: every log of [a] is {!equal} to some log of [b].
    Hashed like {!dedup}: linear in the total number of events. *)

val pp : Format.formatter -> t -> unit
