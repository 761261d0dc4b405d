(** A work-stealing domain-pool executor with deterministic merging
    (DESIGN.md S24).

    The bounded substitute for the paper's ∀-quantified proofs replays the
    layer game over enumerated scheduler suites — an independent job per
    schedule.  This module spreads such job lists over a persistent pool
    of OCaml domains (stdlib [Domain]/[Mutex]/[Condition], no new
    dependencies) while keeping every checker verdict {e bit-identical} to
    the sequential scan: parallelism changes wall-clock only, never a
    certificate judgment.

    There is one scan, {!budgeted_scan}, and it serves one caller:
    {!games} plays every checker's schedule suite on it under the run's
    {!Budget.token}.  The DPOR walk that produces the [dpor] suites is
    one sequential DFS and never reaches the pool.  Pools are cached
    by size and reused across calls; worker domains sleep between
    batches and are joined by an [at_exit] hook.  The submitting domain
    always participates, so [~jobs:n] means [n] runners on [n - 1]
    spawned domains.  [~jobs:1] (the oracle) bypasses the pool entirely
    and takes the plain sequential code path. *)

val default_jobs : unit -> (int, string) result
(** The [CCAL_JOBS] environment variable when set, otherwise
    [Domain.recommended_domain_count ()]; an empty value counts as unset.
    A value that is not a positive integer is an [Error] naming it.  What
    the CLI uses when no [--jobs] is given. *)

val recommend_domains : (int * float) list -> int
(** [recommend_domains curve] derives the jobs count to recommend from a
    measured [(jobs, speedup)] scaling curve: the entry with the highest
    speedup, ties broken toward fewer domains.  [1] on an empty curve.
    This is what the benchmark writes into [BENCH_parallel.json]'s
    [recommended_domains] — a measurement, not
    [Domain.recommended_domain_count]. *)

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
    each finished play: every checker's suite runs here (DESIGN.md
    S37).  Each game gets the fuel [max_steps] (the {!Ccal_core.Game}
    default when absent), [ctx.memory] and the budget's stop closure
    ({!Budget.game_stop}).  A game the stop closure cancelled is never
    judged: it ends the scan [Exhausted].  [cost] (default: the game's
    steps) charges each judged schedule to [ctx.token]; [cut] (default
    never) ends the scan [Complete] at the first verdict it accepts,
    that verdict included.

    The result is the judged prefix in suite order.  With an unlimited
    token and no cut it is [List.map (fun s -> judge s (Game.run …))
    scheds]; under a budget it is truncated by {!budgeted_scan}'s rules,
    identically for every [ctx.jobs]. *)

(** {1 The scan underneath} *)

type 'b budgeted = {
  prefix : 'b list;  (** surviving outcomes, in index order *)
  ran_out : bool;  (** the scan stopped because the budget ran out *)
}

val budgeted_scan :
  ?jobs:int ->
  token:Budget.token ->
  cut:('b -> bool) ->
  (stop:(unit -> bool) option -> 'a -> (int * 'b) option) ->
  'a list ->
  'b budgeted
(** [budgeted_scan ~jobs ~token ~cut f xs] is the parallel early-exit
    scan under a {!Budget.token} (DESIGN.md S24, S27).  Each job [f ~stop
    x] returns [Some (cost, y)], its result and the steps to charge, or
    [None] when its stop closure cut it short.  With an unlimited token
    (no job stops) its [prefix] is exactly what

    {[ let rec go = function
         | [] -> []
         | x :: r -> let _, y = Option.get (f ~stop:None x) in
           if cut y then [ y ] else y :: go r ]}

    would return — all results up to and including the {e lowest-indexed}
    job satisfying [cut] — regardless of the order in which domains
    finish; an exception is re-raised from the lowest-indexed job that
    raised, as the sequential fold would.  Once a cut is pinned, chunks
    wholly above it are cancelled rather than evaluated.  This is how
    every checker reports the failure of the lowest-indexed schedule.

    The job receives a per-job stop closure to thread into
    [Game.config]; {!games} is its one caller.

    Determinism: with a {e step} budget, the returned prefix is a pure
    function of the inputs — every job gets the same private step
    allowance (the token's remaining budget at scan entry), and the
    merge re-truncates the prefix sequentially at the first job whose
    cumulative cost exceeds the allowance, or that stopped, evaluating
    inline any job the racy early-stop heuristic skipped.  Deadline and
    cancellation are wall-clock events and may move the truncation
    point, never a completed outcome.  On return the token is
    {!Budget.settle}d with the deterministic total, so stacked scans
    compose.  Injected worker crashes (see {!Fault}) are absorbed by the
    pool's requeue path. *)

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
(** Join every pooled domain.  Runs automatically [at_exit]; exposed for
    tests and long-lived embedders. *)
