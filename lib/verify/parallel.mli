(** A work-stealing domain-pool executor with deterministic merging
    (DESIGN.md S24).

    The bounded substitute for the paper's ∀-quantified proofs replays the
    layer game over enumerated scheduler suites — an independent job per
    schedule.  This module spreads such job lists over a persistent pool
    of OCaml domains (stdlib [Domain]/[Mutex]/[Condition], no new
    dependencies) while keeping every checker verdict {e bit-identical} to
    the sequential scan: parallelism changes wall-clock only, never a
    certificate judgment.

    There is one scan, {!budgeted_scan}: every checker's schedule suite,
    the stack's linking edges included, runs through it under the run's
    {!Budget.token}, and {!map} is the same scan with no cut and
    {!Budget.no_token}.  Pools are cached by size and reused across
    calls; worker domains sleep between batches and are joined by an
    [at_exit] hook.  The submitting domain always participates, so
    [~jobs:n] means [n] runners on [n - 1] spawned domains.  [~jobs:1]
    (the oracle) bypasses the pool entirely and takes the plain
    sequential code path. *)

val default_jobs : unit -> (int, string) result
(** The [CCAL_JOBS] environment variable when set, otherwise
    [Domain.recommended_domain_count ()]; an empty value counts as unset.
    A value that is not a positive integer is an [Error] naming it.  What
    the CLI uses when no [--jobs] is given. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], evaluated across [min jobs
    (length xs)] domains: {!budgeted_scan} with no cut under
    {!Budget.no_token}.  Exceptions are re-raised deterministically: the
    one from the lowest-indexed job, as the sequential map would. *)

val recommend_domains : (int * float) list -> int
(** [recommend_domains curve] derives the jobs count to recommend from a
    measured [(jobs, speedup)] scaling curve: the entry with the highest
    speedup, ties broken toward fewer domains.  [1] on an empty curve.
    This is what the benchmark writes into [BENCH_parallel.json]'s
    [recommended_domains] — a measurement, not
    [Domain.recommended_domain_count]. *)

(** {1 The scan} *)

type 'b budgeted = {
  prefix : 'b list;  (** surviving outcomes, in index order *)
  ran_out : bool;  (** the scan stopped because the budget ran out *)
}

val budgeted_scan :
  ?jobs:int ->
  token:Budget.token ->
  cost:('b -> int) ->
  interrupted:('b -> bool) ->
  cut:('b -> bool) ->
  (stop:(unit -> bool) option -> 'a -> 'b) ->
  'a list ->
  'b budgeted
(** [budgeted_scan ~jobs ~token ~cost ~interrupted ~cut f xs] is the
    parallel early-exit scan under a {!Budget.token} (DESIGN.md S24,
    S27).  With an unlimited token its [prefix] is exactly what

    {[ let rec go = function
         | [] -> []
         | x :: r -> let y = f ~stop:None x in
           if cut y then [ y ] else y :: go r ]}

    would return — all results up to and including the {e lowest-indexed}
    job satisfying [cut] — regardless of the order in which domains
    finish; an exception is re-raised from the lowest-indexed job that
    raised, as the sequential fold would.  Once a cut is pinned, chunks
    wholly above it are cancelled rather than evaluated.  This is how
    every checker reports the failure of the lowest-indexed schedule.

    The body receives a per-job stop closure to thread into
    [Game.config]; [cost] extracts a job's step cost from its outcome and
    [interrupted] recognises an outcome cut short by the stop closure
    (e.g. [Game.Cancelled]).

    Determinism: with a {e step} budget, the returned prefix is a pure
    function of the inputs — every job gets the same private step
    allowance (the token's remaining budget at scan entry), and the
    merge re-truncates the prefix sequentially at the first job whose
    cumulative cost exceeds the allowance, evaluating inline any job the
    racy early-stop heuristic skipped.  Deadline and cancellation are
    wall-clock events and may move the truncation point, never a
    completed outcome.  On return the token is {!Budget.settle}d with the
    deterministic total, so stacked scans compose.  Injected worker
    crashes (see {!Fault}) are absorbed by the pool's requeue path. *)

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
