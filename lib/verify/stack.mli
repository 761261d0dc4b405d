(** The Fig. 1 layer stack, assembled and verified end-to-end.

    The paper's motivating picture: above the multicore hardware sit the
    spinlocks, then the shared queues, then the thread scheduler with
    [yield]/[sleep]/[wakeup], then the high-level synchronization libraries
    (queuing lock, condition variables, IPC).  This module certifies every
    edge of that stack with the layer calculus and checks the two linking
    theorems, returning a machine-readable report — the reproduction of
    Figure 1 plus the verification pipeline of Figure 5. *)

open Ccal_core

type edge = {
  edge_name : string;  (** e.g. ["L0 |- M_ticket : Llock"] *)
  kind :
    [ `Cert of Calculus.rule_name | `Linking | `Soundness | `Adversarial ];
  checks : int;  (** evidence entries / schedules discharged *)
  millis : float;
  counters : (string * int) list;
      (** this edge's telemetry counter growth ({!Telemetry.diff_counters}
          over the edge's body); [[]] when telemetry is off.  Like
          [checks], identical for every [jobs] count. *)
}

type report = {
  edges : edge list;
  total_checks : int;
  total_millis : float;
}

type progress = { completed : report; next_edge : string option }
(** How far a stack verification under a budget got: the report over
    the completed edges, and — when the budget ran out — the first edge
    that did not complete. *)

val pp_report : Format.formatter -> report -> unit

val pp_report_canonical : Format.formatter -> report -> unit
(** The verdict-stable projection: like {!pp_report} but without the
    timing fields.  This text is bit-identical between a cold and a warm
    cached run, and across every [jobs] count — the CI cache leg and the
    cache tests compare it byte for byte. *)

val edge_fingerprints :
  ?lock:[ `Ticket | `Mcs ] ->
  ?seeds:int ->
  ?strategy:Ctx.Engine.t ->
  ?memory:Ccal_core.Memory.t ->
  unit ->
  (string * Fingerprint.t) list
(** The cache key of every edge {!verify_all_ctx} would check, in order,
    keyed by [edge_name] — read off the same edge list the check runs,
    so a key and its edge body cannot drift apart.  Exposed so tests can
    assert the invalidation contract: changing an input (the lock
    implementation, the seeds, the strategy, the memory mode) must
    change exactly the keys of the edges that depend on it.  The memory
    mode enters {e every} key — an SC verdict is never served for a TSO
    query.  [jobs] takes no part in any key. *)

val adversarial_edge_name : string
(** Name of the opt-in spinning-rwlock edge, for CLI/report plumbing. *)

val verify_all_ctx :
  ctx:Ctx.t ->
  ?lock:[ `Ticket | `Mcs ] ->
  ?seeds:int ->
  ?strategy:Ctx.Engine.t ->
  ?adversarial:bool ->
  unit ->
  (progress, string) result Budget.outcome
(** Certify and link the whole stack.  When [strategy] is given, every
    game-driving edge (the linking theorems, the Pcomp compatibility
    corpus and the soundness games) derives its scheduler suite from that
    engine over the edge's own game — the dpor engine walks each game and
    replays only non-redundant prefixes; otherwise the seeded default
    suite ([seeds], default 4) is used.  ([ctx.strategy] is {e not} used:
    the stack's historical default is the seeded suite, so the strategy
    stays an explicit argument.)  [ctx.jobs] spreads every game-driving
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
    edge ({!adversarial_edge_name}): the C spin loops phase-lock with the
    trace-prefix schedulers and burn their whole fuel allowance, so the
    edge is effectively a hang without a budget and the canonical
    demonstration that one turns it into an [Exhausted] report.

    The edges run through {!Edges.run}.  [ctx.budget] is polled before
    each edge and inside every inner checker; an [Exhausted]
    outcome carries the {!progress} frontier — the report over completed
    edges plus the name of the first edge that did not complete — and
    the [spent] of the checker that ran out.  Completed edges are never
    re-verified on resume when [ctx.cache] is set (their verdicts were
    stored).

    [ctx.cache] memoizes each edge's verdict on disk under its
    {!edge_fingerprints} key (kind ["edge"]); keys are computed only when
    a cache is attached.  A hit returns the stored edge (verdict,
    [checks], [counters]) with the lookup time as [millis] and skips the
    edge's game entirely; a miss runs the edge and stores it on success.
    Failing and exhausted edges are never stored, so failures always
    reproduce live.  The edges' inner checkers ({!Explore}, {!Dpor},
    {!Linearizability.refine_cert_ctx}) keep no entries of their own: the
    edge is the one unit cached.  The adversarial edge has no key and is
    never cached. *)
