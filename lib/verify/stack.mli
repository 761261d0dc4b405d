(** The Fig. 1 layer stack, assembled and verified end-to-end.

    The paper's motivating picture: above the multicore hardware sit the
    spinlocks, then the shared queues, then the thread scheduler with
    [yield]/[sleep]/[wakeup], then the high-level synchronization libraries
    (queuing lock, condition variables, IPC).  This module certifies every
    edge of that stack with the layer calculus and checks the two linking
    theorems, returning a machine-readable report — the reproduction of
    Figure 1 plus the verification pipeline of Figure 5.  The edges run
    through {!Edges.run}, so each completed edge is one {!Edges.row}
    (counted under ["checks"]), timed and printed by {!Edges}. *)

open Ccal_core

type report = Edges.report = {
  edges : Edges.row list;
  total_checks : int;  (** the sum of the rows' ["checks"] *)
  total_millis : float;
}

type progress = Edges.progress = { completed : report; next_edge : string option }
(** How far a stack verification under a budget got: the report over
    the completed edges, and — when the budget ran out — the first edge
    that did not complete. *)

val layout : Edges.layout
(** The stack's report columns, for {!Edges.pp}: each row is
    [[label] name  N checks], the label being the calculus rule of a
    certificate edge ([Fun], [Vcomp], [Pcomp], ...), [Link], [Sound] or
    [Adv]; a footer line gives the total.  The canonical text
    ([~millis:false]) is bit-identical between a cold and a warm cached
    run, and across every [jobs] count — the CI cache leg and the cache
    tests compare it byte for byte. *)

val edge_fingerprints :
  ?lock:[ `Ticket | `Mcs ] ->
  ?strategy:Ctx.Engine.t ->
  ?memory:Ccal_core.Memory.t ->
  unit ->
  (string * Fingerprint.t) list
(** The cache key of every edge {!verify_all_ctx} would check, in order,
    keyed by edge name — read off the same edge list the check runs,
    so a key and its edge body cannot drift apart.  Exposed so tests can
    assert the invalidation contract: changing an input (the lock
    implementation, the strategy, the memory mode) must
    change exactly the keys of the edges that depend on it.  The memory
    mode enters {e every} key — an SC verdict is never served for a TSO
    query.  [jobs] takes no part in any key. *)

val verify_all_ctx :
  ctx:Ctx.t ->
  ?lock:[ `Ticket | `Mcs ] ->
  ?strategy:Ctx.Engine.t ->
  ?adversarial:bool ->
  unit ->
  (progress, Failure.t) result Budget.outcome
(** Certify and link the whole stack.  Every game-driving edge (the
    linking theorems, the Pcomp compatibility corpus and the soundness
    games) derives its scheduler suite from [strategy] over the edge's
    own game: the dpor engine walks each game and replays only
    non-redundant prefixes, and the default, [random:4], is round-robin
    plus four seeded random schedulers.  [strategy] replaces
    [ctx.strategy] for this call, and its descriptor enters the keys of
    exactly those five edges.  [ctx.jobs] spreads every game-driving
    edge's schedule scan over a {!Parallel} domain pool; the report
    differs only in the timing fields — failures and check counts are
    identical for every jobs count.  The edges:
    {ol
    {- multicore linking (Thm 3.1) over the hardware machine;}
    {- the spinlock certificate ([`Ticket] by default; [`Mcs] drops in the
       other implementation unchanged, Sec. 6);}
    {- the shared-queue certificate and its vertical composition with the
       lock (Fig. 5 extended);}
    {- parallel composition of per-thread lock certificates (Pcomp);}
    {- multithreaded linking (Thm 5.1) over the scheduler;}
    {- the queuing-lock and IPC certificates;}
    {- whole-machine soundness games for the lock, queue and IPC layers.}}

    [adversarial] (default false) appends the spinning-rwlock livelock
    edge (["Lrwlock spin suite under adversarial schedules (livelock)"]):
    the C spin loops phase-lock with the
    trace-prefix schedulers and burn their whole fuel allowance, so the
    edge is effectively a hang without a budget and the canonical
    demonstration that one turns it into an [Exhausted] report.

    A failing edge ends the run with its checker's {!Failure.t}, named
    with the edge by {!Edges.run}: a certificate edge's fails as the
    {!Calculus} rule did, a linking or soundness edge's names the
    schedule of the suite whose play broke it.

    The edges run through {!Edges.run}.  The budget token [ctx.token] is
    polled before each edge and inside every inner checker; an
    [Exhausted] outcome carries the {!progress} frontier — the report
    over completed edges plus the name of the first edge that did not
    complete — and the [spent] of the checker that ran out.  Completed edges are never
    re-verified on resume when [ctx.cache] is set (their verdicts were
    stored).

    [ctx.cache] memoizes each edge's verdict on disk under its
    {!edge_fingerprints} key (kind ["edge"]); keys are computed only when
    a cache is attached.  A hit returns the stored row (label, [checks],
    [counters]) with the lookup time as [millis] and skips the
    edge's game entirely; a miss runs the edge and stores it on success.
    Failing and exhausted edges are never stored, so failures always
    reproduce live.  The edges' inner checkers ({!Explore}, {!Dpor},
    {!Linearizability.refine_cert_ctx}) keep no entries of their own: the
    edge is the one unit cached.  The adversarial edge has no key and is
    never cached. *)
