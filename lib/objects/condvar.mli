(** Condition variables (Fig. 1's "Sync. Libs").

    A condition variable here is a sleeping-queue channel used under a
    spinlock, following the classic monitor pattern: [cv_wait(cv, lk, v)]
    atomically publishes [v], releases spinlock [lk] and sleeps on channel
    [cv], returning once woken {e and} rescheduled (Mesa semantics — the
    caller must re-acquire the lock and re-check its predicate in a loop);
    [cv_signal(cv)] wakes one sleeper and [cv_broadcast(cv)] all of them.
    Both must be called while holding the lock that guards the predicate,
    otherwise signals may be lost.

    These are thin C wrappers over the scheduler primitives of
    {!Thread_sched}; their verification happens end-to-end through the IPC
    channel built on top ({!Ipc}), the same way the paper validates its
    synchronization libraries through the systems using them. *)

val cv_wait_fn : Ccal_clight.Csyntax.fn
(** [cv_wait(cv, lk, v)]: sleep on [cv], atomically releasing [lk] with
    published value [v]; returns after wakeup + reschedule.  The caller
    re-acquires [lk] itself. *)

val cv_signal_fn : Ccal_clight.Csyntax.fn
(** [cv_signal(cv)]: wake the first sleeper; returns its thread id (0 if
    none). *)

val cv_broadcast_fn : Ccal_clight.Csyntax.fn
(** [cv_broadcast(cv)]: wake all current sleepers; returns how many. *)

val c_module : unit -> Ccal_core.Prog.Module.t
