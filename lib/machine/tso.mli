(** The x86-TSO hardware machine — the buffered memory mode.

    Sec. 6 (Limitations): "Our concurrent machine models assume strong
    sequential consistency for atomic primitives.  Previous work
    demonstrated that race-free programs on a TSO model do indeed behave
    as if executing on a sequentially consistent machine ... we believe
    extending our work from SC to TSO is promising."

    This module implements that extension as a first-class memory mode
    ({!Ccal_core.Memory}).  Plain stores go into a per-CPU FIFO store
    buffer (a [buf_store] event); loads forward from the own buffer
    (youngest matching write) before reading memory; read-modify-write
    primitives ([faa]/[xchg]/[cas]), the explicit [mfence] and the
    push/pull synchronisation primitives drain the caller's buffer first
    (each drained write is a [commit] event) — the essential rules of
    x86-TSO.  Everything is replayed from the log, so the buffers are
    never stored.

    Buffer flush is an explicit scheduler move: the layer exports a
    [flush] primitive ({!Ccal_core.Memory.flush_tag}) that commits the
    single oldest pending store of a CPU or blocks when its buffer is
    empty, and games configured with [~memory:Tso] give every thread a
    flusher pseudo-thread looping on it
    ({!Ccal_core.Game.pseudo_threads}).  The DPOR explorer therefore
    enumerates flush points like any other move; flushes of different
    CPUs commute (different buffers, different commit objects), flushes
    of the same cell conflict with same-cell accesses.

    Checks built on top (see the litmus suite in the tests and
    {!Ccal_verify.Litmus}):
    {ul
    {- the store-buffering litmus test distinguishes the modes: the
       outcome [r1 = r2 = 0] is reachable on TSO but not on SC;}
    {- with an [mfence] between the store and the load, TSO re-converges
       with SC;}
    {- push/pull-disciplined (race-free) programs have the same behaviour
       sets on both machines ({!judge_sc_equivalence}), the Sewell et al.
       result the paper leans on.}} *)

open Ccal_core

val buf_store_tag : string
(** A store that entered the caller's store buffer. *)

val commit_tag : string
(** A buffered store reaching shared memory.  Arguments are
    [(cell, value, cpu)]: the cell first so the DPOR first-int-arg
    convention treats same-cell commits/accesses as dependent, the
    owning cpu last because the event's [src] is the mover (a flusher
    pseudo-thread for flush moves, the thread itself for RMW/fence
    drains). *)

val mfence_tag : string

val replay_memory : int -> int Replay.t
(** Value of cell [b] in shared memory: [commit] events plus the
    SC operations ([faa]/[xchg]/[cas]/[astore] of {!Atomic}). *)

val replay_buffer : Event.tid -> (int * int) list Replay.t
(** The pending (cell, value) writes of a CPU's store buffer, oldest
    first.  Errors if some commit did not match the FIFO head — the
    store-buffer discipline every well-formed TSO log satisfies.  One
    {!Replay.family} over every CPU: a commit naming no cpu sticks every
    buffer, any other error only its own CPU's. *)

val layer : unit -> Layer.t
(** The TSO hardware layer [Ltso]: [aload]/[astore]/[faa]/[xchg]/[cas]
    with store-buffer semantics, [mfence], [flush], plus the push/pull
    primitives (fenced: they drain first) and [cpuid]. *)

val machine_layer : Memory.t -> Layer.t
(** The hardware layer of a memory mode: {!Mx86.layer} for [Sc],
    {!layer} for [Tso]. *)

val erase_buffering : Log.t -> Log.t
(** Read a TSO log as an SC log: each [commit (b, v, cpu)] becomes cpu's
    [astore (b, v)] at the commit's position (memory order, where the
    store became globally visible); [buf_store] and [mfence] vanish.
    The litmus runner extracts outcomes from erased logs so one outcome
    function serves both modes. *)

val under_memory : Memory.t -> Sim_rel.t -> Sim_rel.t
(** [under_memory m r] is [r] under [Sc] and under [Tso] [r] after a
    relation that erases [buf_store]/[commit]/[mfence] outright (object
    relations built with {!Sim_rel.of_table} keep unknown tags) — the
    uniform way call sites adapt an object relation to the memory
    mode. *)

val with_drain : Env_context.t -> Env_context.t
(** Wrap an environment context so it first commits every pending store
    at each query point (then queries the wrapped context on the drained
    log).  This is x86-TSO's progress guarantee — buffers drain
    eventually — without which a buffered spin (e.g. MCS waiting on its
    own forwarded store) never terminates in a certificate game. *)

val judge_sc_equivalence :
  (Event.tid * Prog.t) list ->
  Sched.t ->
  Game.outcome ->
  (unit, Failure.t) result
(** [judge_sc_equivalence threads sched tso] judges a play [tso] of
    [threads] on the TSO machine ({!layer}, played with [~memory:Tso] so
    flusher moves are in play) against the SC machine ({!Mx86.layer}),
    which it plays itself under the same scheduler with 100,000 moves of
    fuel: both must complete with identical thread
    results, drained buffers and identical final memory on every
    mentioned cell — the executable form of "race-free programs on TSO
    behave as if executing on a sequentially consistent machine".
    Multicore linking over the TSO machine (Theorem 3.1) is
    {!Mx86.judge_linking} over {!layer}.  A failure names the schedule,
    with the TSO play as [f_lower] and the SC play as [f_upper], whose
    length is the event index. *)
