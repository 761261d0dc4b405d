(** A sense-reversing barrier — another synchronization library over the
    scheduler primitives (Fig. 1's "Sync. Libs").

    [bar_wait(b, n)] blocks until [n] threads have arrived at barrier [b];
    the last arriver wakes all sleepers.  The state (arrival count and
    generation) is the spinlock-protected word of lock [b]: the low bits
    count arrivals, the generation distinguishes reuses.

    Unlike locks and queues, a barrier episode is {e not} a linearizable
    single-event object — all [n] waits overlap by design — so instead of
    an atomic overlay certificate, the library is verified behaviourally:
    {!episodes_wellformed} checks on every log that no thread leaves an
    episode before the last thread of that episode has arrived, and the
    test-suite checks it over scheduler suites, plus reuse across
    generations. *)

open Ccal_core

val c_module : unit -> Prog.Module.t

val underlay : placement:Thread_sched.placement -> unit -> Layer.t
(** [mt_layer] over the spinlock interface plus the [bar_arrive]/
    [bar_pass] marker primitives. *)

val episodes_wellformed : n:int -> int -> Log.t -> bool
(** [episodes_wellformed ~n b log]: grouping [arrive]/[pass] events of
    barrier [b] into generations of [n], every pass of generation [g]
    happens after the [n]-th arrival of generation [g]. *)
