(** The shared queue object (Sec. 4.2).

    A shared queue is an atomic object built by wrapping local queue
    operations with lock acquire/release — "to implement the atomic queue
    object, we simply wrap the local queue operations with lock acquire and
    release statements" (Sec. 6).  The queue contents are the
    lock-protected value: [acq] hands the current logical list to the
    critical section, which manipulates it with silent helpers (the paper's
    [deQ_t] operating under the assumption that the lock is held) and
    publishes the result through [rel].

    The overlay is the atomic interface [Lq_high]: one event per operation.
    The simulation relation is the [Rlock] of Sec. 4.2: it {e merges} the
    [c.acq(i) … c.rel(i,q')] pair into the single higher-level event — a
    stateful log translation, not a pointwise one. *)

open Ccal_core

val helpers : (string * Layer.prim) list
(** The silent list helpers [q_hd]/[q_tl]/[q_snoc]/[q_len] (the paper's
    critical-section operations such as [deQ_t], Sec. 4.2); also reused by
    the IPC channel's buffer. *)

val underlay : unit -> Layer.t
(** [Lq]: the atomic lock interface plus the silent list helpers
    [q_hd]/[q_tl]/[q_snoc] used inside the critical section. *)

val overlay : unit -> Layer.t
(** [Lq_high]: atomic [deQ_s(q)] (returns [-1] on empty) and
    [enQ_s(q,v)], with state replayed from the events themselves. *)

val replay_queue : int -> Value.t list Replay.t
(** Logical contents of shared queue [q] from [deQ_s]/[enQ_s] events. *)

val deq_fn : Ccal_clight.Csyntax.fn
val enq_fn : Ccal_clight.Csyntax.fn

val c_module : unit -> Prog.Module.t

val r_lock : Sim_rel.t
(** The event-merging relation [Rlock] (Sec. 4.2): [acq(q) … rel(q, l')]
    becomes [deQ_s]/[enQ_s] according to how the published list differs
    from the acquired one; lock events of shared queues disappear. *)

val recipe : Object_intf.t
(** [Lq[A] ⊢_{Rlock} M_sq : Lq_high[A]]: queue 0, with rivals 9 and 8
    together enqueuing and dequeuing on it. *)

val full_stack_certify :
  ?memory:Memory.t -> ?focus:Event.tid list -> unit ->
  (Calculus.cert, Failure.t) result
(** The vertical composition of Fig. 5 extended to the queue: ticket lock
    certificate stacked under the shared-queue certificate,
    [L0[A] ⊢_{Rlock ∘ R_ticket} M1 ⊕ M_sq : Lq_high[A]].  [?memory]
    selects the hardware machine the lock certificate is built over; the
    queue certificate above it is memory-mode-insensitive (its underlay
    is already the atomic lock interface). *)
