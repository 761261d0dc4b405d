(** The atomic spinlock interface [Llock] (Sec. 2, Sec. 4.1).

    At this level a lock is a pair of atomic primitives:

    {ul
    {- [acq(b)] — a single event; {e blocks} while the lock is held (there
       is no spinning to observe any more), enters the critical state, and
       returns the lock-protected value (the paper's pull of the protected
       location happens inside the lock acquisition, Fig. 10);}
    {- [rel(b, v)] — a single event publishing [v] as the new protected
       value and leaving the critical state.}}

    Both the ticket lock and the MCS lock implement this same interface,
    which is what lets lock implementations be interchanged freely without
    affecting any proof in higher modules (Sec. 6).

    The interface carries the lock rely/guarantee conditions: environment
    participants keep their lock events well-bracketed and release held
    locks within a bounded number of steps (the fairness/definite-release
    conditions of Sec. 2 used for starvation-freedom). *)

val acq_tag : string
val rel_tag : string

type lock_state = {
  holder : Ccal_core.Event.tid option;
  value : Ccal_core.Value.t;  (** current protected value (initially 0) *)
}

val replay_lock : int -> lock_state Ccal_core.Replay.t
(** Lock state of lock [b], replayed from [acq]/[rel] events; stuck on
    ill-formed logs (acquisition of a held lock, release by a
    non-holder). *)

val condition : unit -> Ccal_core.Rely_guarantee.t
(** Well-bracketing plus release within 64 events, over the atomic tags. *)

val layer : ?bound:int -> ?extra:(string * Ccal_core.Layer.prim) list -> string -> Ccal_core.Layer.t
(** An atomic lock layer with the given name, optionally extended with
    pass-through primitives (the paper's [f], [g] of Fig. 3); its rely and
    guarantee are {!condition} with release within [bound] (default 64)
    events. *)

val mutual_exclusion : Ccal_core.Log.t -> bool
(** No two threads hold the same lock simultaneously at any prefix — the
    safety property of Sec. 4.1, checked over a whole log. *)

val handoffs : int -> Ccal_core.Log.t -> Ccal_core.Event.tid list
(** The sequence of threads that acquired lock [b], in order (used to
    compare lock-acquisition order across layers). *)

val round : int -> Ccal_core.Prog.t
(** One acquire of lock [b] and the release that publishes back the value
    it acquired: what a rival thread runs in the lock certificates. *)
