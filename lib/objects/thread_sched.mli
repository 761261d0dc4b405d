(** Multithreaded layers: the thread scheduler (Sec. 5.1–5.3).

    Threads are partitioned onto CPUs by a {!placement}.  On each CPU at
    most one thread is {e running}; the others sit in the CPU's ready queue
    [rdq], in its pending queue [pendq] (threads woken up by other CPUs),
    or in a shared sleeping queue [slpq] (Sec. 5.1).  All of this state is
    replayed from the scheduling events [yield]/[sleep]/[wakeup]/[texit]
    by the replay function [Rsched], which tracks the currently-running
    thread (Sec. 5.1).

    {!mt_layer} is the layer transformer that turns any interface into its
    multithreaded counterpart: every shared primitive of a thread that is
    not currently running {e blocks} — the executable form of "the machine
    runs P when control is transferred to a member of A" — and the
    scheduling primitives are added:

    {ul
    {- [yield()]: requeue the caller (draining [pendq] into [rdq]) and
       transfer control to the next ready thread;}
    {- [sleep(chan, lk, v)]: atomically release spinlock [lk] (publishing
       [v]), enqueue the caller on sleeping queue [chan], and deschedule —
       the atomicity is the whole point of the paper's [sleep(i, lk)]
       signature: splitting release from sleep loses wakeups.  One move,
       two events ([rel] then [sleep]), so no interleaving fits between;}
    {- [wait(chan)]: block until woken {e and} scheduled, then log a [wait]
       event (the point at which a queuing-lock acquire completes);}
    {- [wakeup(chan)]: dequeue the first sleeper (returning its id, or 0
       if none) and make it ready — on its own CPU's [rdq], on a remote
       CPU's [pendq], or running directly if that CPU is idle;}
    {- [texit()]: leave the CPU for good (so sibling threads can run after
       the caller's program finishes);}
    {- [get_tid()]: private, the caller's id (Fig. 11's [get_tid]).}}

    Thread ids must be ≥ 1 (0 is the "nobody" value in replay results). *)

open Ccal_core

type placement = (Event.tid * int) list
(** [thread ↦ cpu].  Threads of a CPU start with the lowest id running and
    the rest in [rdq], in increasing order. *)

val yield_tag : string
val sleep_tag : string
val wakeup_tag : string
val wait_tag : string
val exit_tag : string

type cpu_state = {
  running : Event.tid option;
  rdq : Event.tid list;
  pendq : Event.tid list;
}

type state = {
  cpus : (int * cpu_state) list;
  slpq : (int * Event.tid list) list;  (** per-channel sleeper FIFOs *)
}

val replay_sched : placement -> state Replay.t
(** [Rsched]: scheduling state from the log; stuck on ill-formed logs
    (scheduling events from descheduled or unplaced threads). *)

val mt_layer : placement -> Layer.t -> Layer.t
(** The multithreaded interface [L[c][T]] over a base interface.  It
    builds [replay_sched placement] once, and every primitive of the
    layer reads the scheduling state through that one fold. *)

val noop_event_prim : string -> string * Layer.prim
(** A shared primitive that logs one event of the given tag and returns
    unit: how the atomic overlays above the scheduler ([Lqlock], [Lipc])
    expose [yield] and [texit]. *)

val default_placement : Event.tid list -> Event.tid list -> placement
(** [default_placement focus rivals] puts every thread of [focus] and
    [rivals] on the CPU numbered after it. *)

val turn_consistent : placement -> Log.t -> bool
(** Every event of the log was produced by a thread that was running on
    its CPU at that point — the key invariant behind the multithreaded
    linking theorem (Thm 5.1): the machine that replays scheduling from
    the log captures every concrete scheduling behaviour. *)

val judge_linking :
  ?max_steps:int ->
  placement:placement ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  Sched.t ->
  Game.outcome ->
  (unit, Failure.t) result
(** The tested analogue of Thm 5.1, judging one play of the
    multithreaded game of [layer] running [threads]: the play must
    complete, and its log must be turn-consistent and replay
    deterministically against the same multithreaded machine under the
    induced schedule (at most [max_steps] replay steps).  The suite is
    played by [Ccal_verify.Parallel.games].  A failure names the
    schedule: a play that did not complete or is not turn-consistent
    fails at the end of its log; a replay that diverged carries the log
    replayed so far, its length the event index. *)
