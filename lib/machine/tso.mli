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
    ({!Ccal_core.Game.flusher_threads}).  The DPOR explorer therefore
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
       sets on both machines ({!sc_equivalent_on}), the Sewell et al.
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

val flush_tag : string
(** = {!Ccal_core.Memory.flush_tag}. *)

val replay_memory : int -> int Replay.t
(** Value of cell [b] in shared memory: [commit] events plus the
    SC operations ([faa]/[xchg]/[cas]/[astore] of {!Atomic}). *)

val replay_buffer : Event.tid -> (int * int) list Replay.t
(** The pending (cell, value) writes of a CPU's store buffer, oldest
    first.  Errors if some commit did not match the FIFO head — the
    store-buffer discipline every well-formed TSO log satisfies. *)

val drain_events :
  ?src:Event.tid -> Event.tid -> Log.t -> (Event.t list, string) result
(** The [commit] events draining CPU [t]'s buffer in FIFO order.
    [?src] (default [t]) is the mover recorded on the commits. *)

val load_value : Event.tid -> int -> Log.t -> (int, string) result
(** What CPU [t] reads from cell [b]: own-buffer forwarding (youngest
    matching buffered write) falling back to shared memory. *)

val flush_prim : string * Layer.prim
(** The buffer-flush scheduler move: commit the oldest pending store of
    the cpu named by the argument, or block when its buffer is empty. *)

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

val erase_buffering_rel : Sim_rel.t
(** {!erase_buffering} as a simulation relation. *)

val drop_buffering : Sim_rel.t
(** Erase [buf_store]/[commit]/[mfence] outright.  Object simulation
    relations built with {!Sim_rel.of_table} keep unknown tags, so TSO
    certificates compose this in front of the object relation. *)

val under_memory : Memory.t -> Sim_rel.t -> Sim_rel.t
(** [under_memory m r] is [r] under [Sc] and [drop_buffering ∘ r] under
    [Tso] — the uniform way call sites adapt an object relation to the
    memory mode. *)

val drain_all : Log.t -> Event.t list
(** Commit everything currently buffered: CPUs in ascending order, each
    buffer FIFO, commits signed by the CPU's flusher pseudo-thread.
    Deterministic, so certificate runs replay bit-identically. *)

val with_drain : Env_context.t -> Env_context.t
(** Wrap an environment context so it first commits every pending store
    at each query point (then queries the wrapped context on the drained
    log).  This is x86-TSO's progress guarantee — buffers drain
    eventually — without which a buffered spin (e.g. MCS waiting on its
    own forwarded store) never terminates in a certificate game. *)

val drain_env : Env_context.t
(** [with_drain Env_context.empty]. *)

val buffers_drained :
  threads:(Event.tid * 'a) list -> Log.t -> bool
(** Every listed CPU's buffer replays well-formed and ends empty — the
    log discipline of a completed TSO game. *)

val cells_mentioned : Log.t -> int list
(** The atomic cells a log touches (sorted, distinct). *)

val final_memory_tso : (Event.tid * 'a) list -> Log.t -> Log.t
(** The log extended with each listed CPU's pending stores committed —
    the memory an SC run would have produced, for final-state
    comparisons. *)

val check_multicore_linking_sched :
  ?max_steps:int ->
  threads:(Event.tid * Prog.t) list ->
  Sched.t ->
  (int, string) result
(** Theorem 3.1 over the TSO machine: {!Mx86.check_multicore_linking_sched}
    with [~layer:(layer ())] and [~memory:Tso].  The workload must be
    commit-free (no plain stores) since the erased log is replayed
    move-for-move; storeful workloads are covered by the store-buffer
    discipline checks ({!replay_buffer}, {!buffers_drained}) instead. *)

val sc_equivalent_on :
  ?max_steps:int ->
  threads:(Event.tid * Prog.t) list ->
  scheds:Sched.t list ->
  unit ->
  (int, string) result
(** Run the same threads on the TSO machine (with [~memory:Tso], so
    flusher moves are in play) and on the SC machine under each
    scheduler and require identical thread results, drained buffers and
    identical final memory on every mentioned cell — the executable form
    of "race-free programs on TSO behave as if executing on a
    sequentially consistent machine".  Each scheduler drives both
    games, trace schedulers included. *)
