(** Dynamic partial-order reduction for the certificate checkers.

    The checkers discharge the bounded-∀ over schedulers by enumeration;
    {!Explore.exhaustive_scheds} does so blindly, running all
    [|tids|^depth] scheduling prefixes even though most are permutations
    of independent moves producing logs already seen.  This module walks
    the whole-machine game as a DFS over the {e enabled} moves only, as
    sleep-set DPOR: once a move's subtree is explored, its commuting
    reorderings are pruned from sibling subtrees.  The engine's [sym]
    flag ({!Ccal_core.Strategy.Engine}) adds symmetry reduction across
    identical fresh threads.  The walk is one sequential DFS; the replay
    of its prefixes runs on the domain pool ({!Parallel.games}).

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
          commutation ({!equivalent}, bucketed on {!trace_key}); sound for
          layers whose replay functions are per-object (the shipped
          objects), and the mode to reach deeper bounds when only state
          coverage matters. *)

type stats = {
  schedules_considered : int;
      (** what exhaustive enumeration would run: [|tids|^depth], where
          [tids] are the table's played threads the walk schedules
          ({!Ccal_core.Game.played}: the real threads, TSO flushers, the
          crash thread), as in the oracle's alphabet; saturating at
          [max_int] (rendered as [">max-int"] by {!pp_stats}) *)
  schedules_run : int;  (** branches actually replayed *)
  schedules_pruned : int;  (** [considered - run] *)
  sleep_set_prunes : int;  (** branches skipped because asleep *)
  sym_prunes : int;  (** branches pruned by thread symmetry ([,sym]) *)
  distinct_logs : int;
      (** distinct leaf logs — under [Commuting_events], distinct
          classes up to commuting independent events *)
}

type result = {
  prefixes : Event.tid list list;  (** surviving scheduling prefixes *)
  outcomes : Game.outcome list;  (** one {!Game.run} outcome per prefix *)
  distinct : Log.t list;
      (** the distinct leaf logs in first-occurrence order — under
          [Commuting_events], the first leaf log of each class up to
          commuting independent events ({!equivalent}), as replayed *)
  stats : stats;
}

val trace_key : Log.t -> int
(** A hash of the log's Mazurkiewicz trace under the object-based
    relation (events of different threads commute on different objects,
    or when both are [get_n], [aload] or [read]): one pass summing a hash
    per event and its place — the later events of its thread, writes on
    its object and object-less events (DESIGN.md S34). *)

val equivalent : Log.t -> Log.t -> bool
(** Equal up to commuting adjacent independent events: the places
    {!trace_key} hashes, compared exactly.  Equivalent logs have equal
    keys. *)

val dedup_traces : (int * Log.t) list -> (int * Log.t) list
(** The first of each {!equivalent} class of keyed logs, in order,
    bucketed on the keys; a collision costs time, never a class.  Keys
    must agree on equivalent logs, as {!trace_key}'s do. *)

val subset_traces : (int * Log.t) list -> (int * Log.t) list -> bool
(** [subset_traces a b]: every log of [a] is {!equivalent} to some log
    of [b]; keyed like {!dedup_traces}. *)

val walk :
  ?independence:independence ->
  engine:Engine.t ->
  Game.table ->
  Event.tid list list * Engine.walk_stats
(** The walk only (no replay) over the table's played threads
    ({!Ccal_core.Game.played}, pseudo-threads included): the surviving
    prefixes in DFS pre-order plus the prune counters, to [engine.depth]
    scheduling choices.  [engine] must be a [dpor] descriptor
    ([Invalid_argument] otherwise).  The walk always runs live. *)

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
    {!Exact}.  [ctx.jobs] parallelises the replay phase; prefixes,
    outcomes, and stats are identical for every jobs count.  Walk and
    replay always run live, so failures reproduce from the real game.  Under
    [Commuting_events] each leaf log is keyed ({!trace_key}) where it is
    replayed, inside the scan's worker, under the span [dpor.key]; the
    keyed leaves are then deduplicated like {!dedup_traces}.

    The walk itself is never charged (depth-bounded and cheap); the
    replay phase charges [ctx.token] per game.  An [Exhausted] result
    still carries the {e complete} prefix frontier with the outcomes of
    the replayed prefixes — [stats.schedules_run] says how far it got.

    [ctx.memory] selects the memory mode.  Under [Tso] the DFS adds the
    flusher pseudo-threads ({!Ccal_core.Game.played}) to its
    root slots, so buffer-flush points are enumerated like any other
    move; flushes of different CPUs commute under [Commuting_events]
    (different buffers, and the commit's first argument is the cell). *)

val pp_stats : Format.formatter -> stats -> unit
(** Saturated counts ([max_int]) render as [">max-int"], never as a
    bare wrapped integer. *)
