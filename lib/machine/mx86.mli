(** The multiprocessor machine model [Mx86] (Sec. 3.1).

    The machine state is the tuple [(c, fρ, m, a, l)] of Fig. 7: current
    CPU, per-CPU private states, shared memory, abstract state and global
    log.  In this reproduction the per-CPU private state lives in the layer
    machine's thread states ({!Ccal_core.Machine.thread_state}), the shared
    memory and abstract state are replayed from the log (push/pull and
    atomic cells), and the two transition classes — program transitions
    and hardware scheduling — are realized by the whole-machine game with
    scheduling events recorded in the log ([log_switches]).

    {!judge_linking} is the tested analogue of Theorem 3.1 (Multicore
    Linking): every behaviour of the hardware machine (with arbitrary
    hardware scheduling events) refines the CPU-local layer interface
    [Lx86[D]], via the relation that erases scheduling events.  The
    suite is played by [Ccal_verify.Parallel.games] with
    [~log_switches:true], as the hardware machine records its
    scheduling. *)

val cpuid_prim : string * Ccal_core.Layer.prim
(** [cpuid()]: private primitive returning the calling CPU's id. *)

val layer : unit -> Ccal_core.Layer.t
(** The bottom interface [Lx86]: atomic cells ({!Atomic.prims}), push/pull
    shared memory ({!Pushpull.prims}) and [cpuid]. *)

val erase_switches : Ccal_core.Sim_rel.t
(** The simulation relation of Theorem 3.1: erase scheduling events. *)

val judge_linking :
  ?max_steps:int ->
  Ccal_core.Layer.t ->
  (Ccal_core.Event.tid * Ccal_core.Prog.t) list ->
  Ccal_core.Sched.t ->
  Ccal_core.Game.outcome ->
  (unit, Ccal_core.Failure.t) result
(** [judge_linking layer threads sched outcome] judges one play of the
    hardware machine [layer] running [threads], recorded with
    [log_switches]: the play must complete, and its log with scheduling
    events erased must replay on [layer] (at most [max_steps] replay
    steps) under the induced scheduler.  [layer] is {!layer} for the SC
    machine or {!Tso.layer} for the TSO machine, whose plays carry flush
    moves; the client workload must then be commit-free (no plain
    stores), since the erased log is replayed move-for-move against the
    same layer.  A failure names the schedule: a play that did not
    complete fails at the end of its log; a replay that diverged carries
    the erased log replayed so far, its length the event index. *)
