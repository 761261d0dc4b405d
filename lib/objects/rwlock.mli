(** A reader-writer lock — an additional synchronization library in the
    spirit of Fig. 1's "Sync. Libs".

    The implementation keeps the reader count in the word protected by a
    spinlock ([0] = free, [n > 0] = [n] readers, [-1] = a writer): a
    reader increments it under the spinlock, a writer spins (acquiring and
    releasing the spinlock) until the count is zero and then publishes
    [-1].  The atomic overlay has four events — [acq_r]/[rel_r] (blocking
    while a writer holds) and [acq_w]/[rel_w] (blocking while anyone
    holds) — and the simulation relation merges each {e successful}
    spinlock section into its atomic event, erasing failed attempts, the
    same linearization-by-publication pattern as the shared queue.

    This object demonstrates that new synchronization libraries verify
    against the existing lock layer without touching it (Sec. 6's
    compositionality claim). *)

open Ccal_core

type rw_state =
  | Free
  | Readers of int
  | Writer of Event.tid

val underlay : unit -> Layer.t
(** The atomic spinlock interface (shared with the other objects). *)

val overlay : unit -> Layer.t

val replay_rw : int -> rw_state Replay.t
(** State of rwlock [l] from overlay events. *)

val acq_r_fn : Ccal_clight.Csyntax.fn
val rel_r_fn : Ccal_clight.Csyntax.fn
val acq_w_fn : Ccal_clight.Csyntax.fn
val rel_w_fn : Ccal_clight.Csyntax.fn

val c_module : unit -> Prog.Module.t

val r_rw : Sim_rel.t

val recipe : Object_intf.t
(** [Llock[A] ⊢_{R_rw} M_rw : Lrwlock[A]]: lock 4, with rival thread 9
    cycling a read round and a write round on it. *)

val no_reader_writer_overlap : Log.t -> bool
(** Safety over an overlay log: at no prefix do a writer and anyone else
    hold the lock simultaneously. *)
