(** A work-stealing domain-pool executor with deterministic merging
    (DESIGN.md S24).

    The bounded substitute for the paper's ∀-quantified proofs replays the
    layer game over enumerated scheduler suites — an independent job per
    schedule.  This module spreads such suites over a persistent pool
    of OCaml domains (stdlib [Domain]/[Mutex]/[Condition], no new
    dependencies) while keeping every checker verdict {e bit-identical} to
    the sequential scan: parallelism changes wall-clock only, never a
    certificate judgment.

    There is one scan, {!games}: every checker's schedule suite is
    played and judged on it under the run's {!Budget.token}.  The DPOR
    walk that produces the [dpor] suites is one sequential DFS and never
    reaches the pool.  Pools are cached by size and reused across calls;
    worker domains sleep between batches and are joined by an [at_exit]
    hook.  The submitting domain always participates, so [~jobs:n] means
    [n] runners on [n - 1] spawned domains.  [~jobs:1] (the oracle)
    bypasses the pool entirely and takes the plain sequential code
    path. *)

val default_jobs : unit -> (int, string) result
(** The [CCAL_JOBS] environment variable when set, otherwise
    [Domain.recommended_domain_count ()]; an empty value counts as unset.
    A value that is not a positive integer is an [Error] naming it.  What
    the CLI uses when no [--jobs] is given. *)

(** {1 The game scan} *)

val games :
  ctx:Ctx.t ->
  ?max_steps:int ->
  ?log_switches:bool ->
  ?cut:('b -> bool) ->
  ?cost:(Ccal_core.Game.outcome -> 'b -> int) ->
  Ccal_core.Layer.t ->
  (Ccal_core.Event.tid * Ccal_core.Prog.t) list ->
  (Ccal_core.Sched.t -> Ccal_core.Game.outcome -> 'b) ->
  Ccal_core.Sched.t list ->
  'b list Budget.outcome
(** [games ~ctx ~cost layer threads judge scheds] plays the game of
    [layer] and [threads] under each scheduler of [scheds] and judges
    each finished play: every checker's suite runs here (DESIGN.md S24,
    S27, S37).  It builds the suite's {!Ccal_core.Game.table} once,
    under [ctx.memory], and plays each scheduler against it.  Each game
    gets the fuel [max_steps] (the {!Ccal_core.Game} default when
    absent) and the budget's stop closure ({!Budget.game_stop}).  A game the stop
    closure cancelled is never judged: it ends the scan [Exhausted].
    [cost] (default: the game's steps) charges each judged schedule to
    [ctx.token]; [cut] (default never) ends the scan [Complete] at the
    first verdict it accepts, that verdict included.

    The result is the judged prefix in suite order.  With an unlimited
    token it is exactly what

    {[ let rec go = function
         | [] -> []
         | s :: r -> let v = judge s (Game.run …) in
           if cut v then [ v ] else v :: go r ]}

    would return — all verdicts up to and including the {e lowest-indexed}
    one satisfying [cut] — regardless of the order in which domains
    finish, for every [ctx.jobs]; an exception is re-raised from the
    lowest-indexed schedule that raised, as the sequential fold would.
    Once a cut is pinned, chunks wholly above it are cancelled rather
    than played.  This is how every checker reports the failure of the
    lowest-indexed schedule.

    Determinism: with a {e step} budget, the prefix is a pure function of
    the inputs — every game gets the same private step allowance (the
    token's remaining budget at scan entry), and the merge re-truncates
    the prefix sequentially at the first schedule whose cumulative cost
    exceeds the allowance, or whose game was cancelled, playing inline
    any schedule the racy early-stop heuristic skipped.  Deadline and
    cancellation are wall-clock events and may move the truncation
    point, never a completed verdict.  On return the token is
    {!Budget.settle}d with the deterministic total, so stacked scans
    compose. *)

type stats = {
  batches : int;  (** batches submitted to any pool *)
  jobs_run : int;  (** jobs actually evaluated (cancelled ones excluded) *)
  busy_ns : int;  (** cumulative per-chunk busy time across workers *)
}

val stats : unit -> stats
(** Cumulative counters over all pools since program start, timed with
    {!Verify_clock}.  [busy_ns / elapsed_ns] approximates pool
    utilisation in the scaling benchmarks. *)

val shutdown_all : unit -> unit
(** Join every pooled domain.  Runs automatically [at_exit]; the bench
    calls it between sections, whose games must not be timed next to
    the idle domains of an earlier section's pools. *)
