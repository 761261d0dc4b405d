(** The queuing lock (Sec. 5.4, Fig. 11).

    With queuing locks, waiting threads are put to sleep instead of busy
    spinning.  The implementation combines a spinlock (protecting the
    lock's [ql_busy] word, which is exactly the spinlock-protected value in
    our model) with the scheduler primitives: a failed acquire sleeps on
    the lock's channel — atomically releasing the spinlock — and completes
    when the releaser's [wakeup] hands the lock over directly
    ([ql_busy[l] = wakeup(l)], Fig. 11 line 12).

    The atomic overlay is a {e thread-local} interface in the sense of
    Sec. 5.3: scheduling has disappeared — [acq_q]/[rel_q] are single
    events, [yield] is a logged no-op — which is what makes the C-level
    specification of the scheduling-dependent code possible.

    Thread ids must be ≥ 1; [ql_busy = 0] means the lock is free (the
    paper uses [-1]; our protected words start at 0). *)

open Ccal_core

val underlay : placement:Thread_sched.placement -> unit -> Layer.t
(** The multithreaded spinlock interface: [mt_layer] over [Llock]. *)

val overlay : unit -> Layer.t
(** [Lqlock]: atomic [acq_q]/[rel_q] (blocking, holder-checked) plus the
    no-op [yield]/[texit] events. *)

val replay_qlock : int -> Event.tid option Replay.t
(** Holder of queuing lock [l] from overlay events. *)

val acq_q_fn : Ccal_clight.Csyntax.fn
val rel_q_fn : Ccal_clight.Csyntax.fn

val c_module : unit -> Prog.Module.t

val r_qlock : Sim_rel.t
(** The stateful relation: a spinlock section ending in [rel(l, self)]
    (fast path) or a [wait(l)] event (slow path) becomes [acq_q(l)];
    a section containing a [wakeup(l)] becomes [rel_q(l)]; the sleeping
    attempt and all scheduler internals disappear; [yield]/[texit]
    survive. *)

val recipe : Object_intf.t
(** [Lmt(Llock)[A] ⊢_{R_qlock} M_ql : Lqlock[A]]: lock 3, rivals 9 and 8
    acquiring and releasing it, alone and together, and the focused CPU's
    yielding siblings. *)
