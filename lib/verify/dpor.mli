(** Dynamic partial-order reduction for the certificate checkers.

    The checkers discharge the bounded-∀ over schedulers by enumeration;
    {!Explore.exhaustive_scheds} does so blindly, running all
    [|tids|^depth] scheduling prefixes even though most are permutations
    of independent moves producing logs already seen.  This module walks
    the whole-machine game as a DFS over the {e enabled} moves only, as
    sleep-set DPOR: once a move's subtree is explored, its commuting
    reorderings are pruned from sibling subtrees.  The engine's [sym]
    flag ({!Ccal_core.Strategy.Engine}) adds symmetry reduction across
    identical fresh threads.  With or without it, the walk splits its
    DFS frontier over the domain pool.

    Each surviving branch is a scheduling prefix; running it back through
    {!Ccal_core.Game.run} (via {!Ccal_core.Sched.of_trace}) reproduces the
    exact outcome the exhaustive oracle would have computed, so DPOR is a
    drop-in schedule generator: same logs, fewer runs.
    {!Explore.oracle_ctx} is the one comparison against the exhaustive
    oracle: distinct-log-set equality, or inclusion under [sym]. *)

open Ccal_core
module Engine = Strategy.Engine

type independence =
  | Exact
      (** two moves commute only when at least one is a silent completion
          (no events, log-insensitive).  Guarantees the DPOR leaf logs are
          {e set-equal} to the exhaustive oracle's raw logs: reordering two
          event-emitting moves always changes the log sequence, so only
          eventless moves may be slept.  This is the default and the mode
          the checkers use. *)
  | Commuting_events
      (** classical object-based independence: two moves commute iff their
          events touch different objects (first integer argument) or are
          all non-conflicting reads.  Logs are then deduplicated {e up to}
          commutation via {!canonical_log}; sound for layers whose replay
          functions are per-object (the shipped objects), and the mode to
          reach deeper bounds when only state coverage matters. *)

type stats = {
  schedules_considered : int;
      (** what exhaustive enumeration would run: [|tids|^depth], where
          [tids] are the real threads plus the pseudo-threads the walk
          schedules ({!Ccal_core.Game.pseudo_threads}: TSO flushers, the
          crash thread), as in the oracle's alphabet; saturating at
          [max_int] (rendered as [">max-int"] by {!pp_stats}) *)
  schedules_run : int;  (** branches actually replayed *)
  schedules_pruned : int;  (** [considered - run] *)
  sleep_set_prunes : int;  (** branches skipped because asleep *)
  sym_prunes : int;  (** branches pruned by thread symmetry ([,sym]) *)
  distinct_logs : int;
      (** distinct leaf logs — under [Commuting_events], distinct
          canonical forms *)
}

type result = {
  prefixes : Event.tid list list;  (** surviving scheduling prefixes *)
  outcomes : Game.outcome list;  (** one {!Game.run} outcome per prefix *)
  distinct : Log.t list;
      (** the distinct leaf logs in first-occurrence order — under
          [Commuting_events], distinct canonical forms ({!canonical_log}) *)
  stats : stats;
}

val canonical_log : Log.t -> Log.t
(** Lexicographically-least representative of the log's Mazurkiewicz
    trace under the object-based relation (events of different threads
    commute on different objects, or when both are [get_n], [aload] or
    [read]): logs are equal up to commuting independent events iff their
    canonical forms are equal.  One pass: the log's dependence DAG is
    built once, keeping for each event only the latest dependent event of
    every other thread, then the [Event.compare]-least ready event (every
    earlier dependent event already emitted) is emitted until none is
    left.  That event is the ready oldest-unemitted event of the thread
    with the smallest tid, found by one cursor per thread. *)

val walk :
  ?independence:independence ->
  ?jobs:int ->
  ?cache:Cache.t ->
  ?memory:Memory.t ->
  engine:Engine.t ->
  depth:int ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  Event.tid list list * Engine.walk_stats
(** The walk only (no replay): the surviving prefixes in DFS pre-order
    plus the prune counters, identical for every [jobs] count.
    [engine] must be a [dpor] descriptor ([Invalid_argument]
    otherwise); [engine.depth] is ignored in favour of [depth].
    [cache] memoizes the result (kind ["engine"]) under a key built from
    the descriptor, the game identity, and every walk knob. *)

val explore_ctx :
  ctx:Ctx.t ->
  ?independence:independence ->
  ?engine:Engine.t ->
  depth:int ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  result Budget.outcome
(** Explore the game to [depth] scheduling choices with [engine]
    (default: the context's strategy when it is [dpor], else
    {!Engine.default}; [engine.depth] is ignored in favour of [depth]),
    then replay every surviving prefix.  [independence] defaults to
    {!Exact}.  [ctx.jobs] parallelises the DFS (the frontier splits into
    independent subtrees, with or without [sym]) and the replay phase —
    prefixes, outcomes, and stats are identical for every jobs count.
    [ctx.cache] memoizes the walk as {!walk} does; the replay phase
    always runs live, so failures reproduce from the real game.  Under
    [Commuting_events] each leaf log is canonicalised where it is
    replayed, inside the scan's worker, under the span
    [dpor.canonicalise].

    The walk itself is never budgeted (depth-bounded and cheap); the
    replay phase charges [ctx.token] per game.  An [Exhausted] result
    still carries the {e complete} prefix frontier with the outcomes of
    the replayed prefixes — [stats.schedules_run] says how far it got.

    [ctx.memory] selects the memory mode.  Under [Tso] the DFS adds the
    flusher pseudo-threads ({!Ccal_core.Game.flusher_threads}) to its
    root slots, so buffer-flush points are enumerated like any other
    move; flushes of different CPUs commute under [Commuting_events]
    (different buffers, and the commit's first argument is the cell).
    The mode is folded into the walk's cache key. *)

val pp_stats : Format.formatter -> stats -> unit
(** Saturated counts ([max_int]) render as [">max-int"], never as a
    bare wrapped integer. *)
