(** The local (sequential) queue: a doubly-linked list refined to a logical
    list.

    The paper's local queue library (Sec. 6, Table 2) is a sequential
    object: "the queue is represented as a logical list in the
    specification, while it is implemented as a doubly linked list".  Here
    the implementation works over a private heap layer ([lload]/[lstore]/
    [lalloc] on the thread's private abstract state — silent primitives,
    Sec. 3.1), and the overlay exposes abstract list operations whose state
    is the field [tdqp:q] of the abstract state (the paper's [a.tdqp],
    Sec. 4.2).  Since both layers are silent, the simulation degenerates to
    equal return values on equal call sequences — which is exactly how
    sequential layers are built in Gu et al. [15]. *)

open Ccal_core

val enq_fn : Ccal_clight.Csyntax.fn
val deq_fn : Ccal_clight.Csyntax.fn
val qlen_fn : Ccal_clight.Csyntax.fn

val c_module : unit -> Prog.Module.t

val recipe : Object_intf.t
(** [Lheap[A] ⊢_id M_q : Labsq[A]], focused on thread 1 in the silent
    context only: the queue is sequential.  The underlay [Lheap] is a
    private heap with [lload(a)], [lstore(a,v)] and the bump allocator
    [lalloc(n)] (addresses from 1000; 0 is the null pointer); the overlay
    [Labsq] has abstract queues as logical lists — [enQ(q,v)], [deQ(q)]
    (returns [-1] on empty), [qlen(q)]. *)
