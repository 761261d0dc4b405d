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

val acq_q_tag : string
val rel_q_tag : string

val underlay : placement:Thread_sched.placement -> unit -> Layer.t
(** The multithreaded spinlock interface: [mt_layer] over [Llock]. *)

val overlay : ?bound:int -> unit -> Layer.t
(** [Lqlock]: atomic [acq_q]/[rel_q] (blocking, holder-checked) plus the
    no-op [yield]/[texit] events. *)

val replay_qlock : int -> Event.tid option Replay.t
(** Holder of queuing lock [l] from overlay events. *)

val acq_q_fn : Ccal_clight.Csyntax.fn
val rel_q_fn : Ccal_clight.Csyntax.fn

val c_module : unit -> Prog.Module.t
val asm_module : unit -> Prog.Module.t

val r_qlock : Sim_rel.t
(** The stateful relation: a spinlock section ending in [rel(l, self)]
    (fast path) or a [wait(l)] event (slow path) becomes [acq_q(l)];
    a section containing a [wakeup(l)] becomes [rel_q(l)]; the sleeping
    attempt and all scheduler internals disappear; [yield]/[texit]
    survive. *)

val prim_tests : ?locks:int list -> unit -> Calculus.prim_tests

val env_suite : placement:Thread_sched.placement -> unit -> Calculus.env_suite
(** Contexts over lock 3: the focused CPU's yielding siblings alone, then
    with one and two rivals (threads 9 and 8, minus the focused one),
    each answering 1 or 2 rounds per query. *)

val certify :
  ?max_moves:int ->
  ?placement:Thread_sched.placement ->
  ?focus:Event.tid list ->
  ?use_asm:bool ->
  unit ->
  (Calculus.cert, Calculus.error) result
(** [Lmt(Llock)[A] ⊢_{R_qlock} M_ql : Lqlock[A]]. *)
