(** The multiprocessor machine model [Mx86] (Sec. 3.1).

    The machine state is the tuple [(c, fρ, m, a, l)] of Fig. 7: current
    CPU, per-CPU private states, shared memory, abstract state and global
    log.  In this reproduction the per-CPU private state lives in the layer
    machine's thread states ({!Ccal_core.Machine.thread_state}), the shared
    memory and abstract state are replayed from the log (push/pull and
    atomic cells), and the two transition classes — program transitions
    and hardware scheduling — are realized by the whole-machine game with
    scheduling events recorded in the log ([log_switches]).

    {!check_multicore_linking} is the tested analogue of Theorem 3.1
    (Multicore Linking): every behaviour of the hardware machine (with
    arbitrary hardware scheduling events) refines the CPU-local layer
    interface [Lx86[D]], via the relation that erases scheduling events. *)

val cpuid_prim : string * Ccal_core.Layer.prim
(** [cpuid()]: private primitive returning the calling CPU's id. *)

val layer : unit -> Ccal_core.Layer.t
(** The bottom interface [Lx86]: atomic cells ({!Atomic.prims}), push/pull
    shared memory ({!Pushpull.prims}) and [cpuid]. *)

val behaviors :
  ?max_steps:int ->
  threads:(Ccal_core.Event.tid * Ccal_core.Prog.t) list ->
  scheds:Ccal_core.Sched.t list ->
  unit ->
  Ccal_core.Game.outcome list
(** [⟦P⟧_{Mx86}]: runs with hardware scheduling recorded as [switch]
    events, as the hardware machine does. *)

val erase_switches : Ccal_core.Sim_rel.t
(** The simulation relation of Theorem 3.1: erase scheduling events. *)

val check_multicore_linking_sched :
  ?max_steps:int ->
  ?layer:Ccal_core.Layer.t ->
  ?memory:Ccal_core.Memory.t ->
  threads:(Ccal_core.Event.tid * Ccal_core.Prog.t) list ->
  Ccal_core.Sched.t ->
  (int, string) result
(** The per-schedule body of {!check_multicore_linking}; [Ok] carries the
    game's step count, the cost a budgeted scan charges.  Pure up to its
    own game state, so the parallel checkers ({!Ccal_verify.Stack}) can
    evaluate schedules on any domain.  [?layer] (default {!layer}) and
    [?memory] (default [Sc]) generalize the check to other hardware
    machines over the same game semantics — {!Tso} passes its buffered
    layer so flush moves become part of the play; the client workload
    must then be commit-free (no plain stores), since the erased log is
    replayed move-for-move against the same layer. *)

val check_multicore_linking :
  ?max_steps:int ->
  threads:(Ccal_core.Event.tid * Ccal_core.Prog.t) list ->
  scheds:Ccal_core.Sched.t list ->
  unit ->
  (int, string) result
(** For each scheduler: run [Mx86], erase scheduling events, and replay the
    resulting log on the machine over [Lx86[D]] (picking the induced
    scheduler).  Returns the number of schedules checked. *)
