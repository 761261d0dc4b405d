(** The kv serving stack, certified end-to-end (DESIGN.md S28).

    Three edges, mirroring {!Ccal_verify.Stack} for the Fig. 1 stack:
    {ol
    {- the sharded hash table refines the atomic map
       ([Llock |- M_kv : Lmap]);}
    {- the block cache over the modeled flat disk refines the map
       restricted to [get]/[put];}
    {- the composed service — block cache stacked on the hash table as
       its backing store — refines the same restricted map.}}

    Every edge is checked as contextual refinement
    ({!Ccal_verify.Linearizability.check_ctx}), so linearizability,
    budgets, certificate caching, fault plans, telemetry and [?jobs] all
    apply for free; verdicts are bit-identical across jobs counts.  The
    edges run through {!Ccal_verify.Edges.run}, so each completed edge is
    one {!Ccal_verify.Edges.row}, timed and printed by [Edges]. *)

open Ccal_core
open Ccal_verify

type report = Edges.report = {
  edges : Edges.row list;
  total_checks : int;  (** the sum of the rows' ["checks"] *)
  total_millis : float;
}

val layout : Edges.layout
(** The kv report's columns, for {!Edges.pp}: a title line with the
    totals, then one row per edge with its ["checks"] (the schedules
    discharged) and ["logs"] (distinct logs) counts.  The canonical text
    ([~millis:false]) is bit-identical between cold and warm cached runs
    and across jobs counts; the [make check-kv] gate compares it byte
    for byte. *)

val fingerprints :
  ?threads:int -> ?shards:int -> ?entries:int ->
  ?strategy:Ctx.Engine.t -> unit -> (string * Fingerprint.t) list
(** The cache key of every edge {!verify_ctx} would check, in order, for
    the invalidation tests ([jobs] takes no part in any key). *)

val verify_ctx :
  ctx:Ctx.t ->
  ?threads:int ->
  ?shards:int ->
  ?entries:int ->
  unit ->
  (report, Failure.t) result Budget.outcome
(** Verify all three edges.  [threads] (default 3) is the client thread
    count, [shards] (default 2) the hash-table bucket count, [entries]
    (default 2) the cache capacity.  The edges run through
    {!Ccal_verify.Edges.run}.  Scheduler suites derive from
    [ctx.strategy] per edge game; [ctx.cache] memoizes whole rows under
    the ["kvedge"] kind (a hit's [millis] is the lookup time; failures
    and exhausted edges always re-run live), and only whole edges: the
    DPOR walks and refinement scans inside an edge always run live;
    [ctx.budget] is polled between edges,
    and an [Exhausted] report lists the completed edges.  A failing edge
    ends the run with its {!Refinement.judge} failure, named with the
    edge by {!Ccal_verify.Edges.run}. *)

(** {1 Whole-machine games} (the explore corpus and the bench) *)

val ht_game :
  shards:int -> threads:int -> unit -> Layer.t * (Event.tid * Prog.t) list
(** The hash-table contention game: each thread puts then gets on a
    2-key working set (thread 1 also deletes), linked down to the lock
    layer. *)

val sym_game :
  shards:int -> threads:int -> unit -> Layer.t * (Event.tid * Prog.t) list
(** The symmetric N-worker game: every thread puts then gets the one key
    and the only tid-dependent integer in each program is its own tid, so
    all workers share one {!Ccal_core.Fingerprint.prog_blind} symmetry
    class — the game the dpor engine's [sym] flag is measured on. *)

val cache_game :
  entries:int -> threads:int -> unit -> Layer.t * (Event.tid * Prog.t) list
(** The block-cache game over the flat disk: a 3-key working set over
    [entries] direct-mapped slots, so eviction and write-back paths are
    in play. *)

val composed_game :
  shards:int ->
  entries:int ->
  threads:int ->
  unit ->
  Layer.t * (Event.tid * Prog.t) list
(** The full service: cache over hash table over locks. *)

val ycsb_game :
  ?seed:int ->
  shards:int ->
  threads:int ->
  read_pct:int ->
  ops:int ->
  keyspace:int ->
  unit ->
  Layer.t * (Event.tid * Prog.t) list
(** A YCSB-style workload over the sharded table: each thread runs [ops]
    operations, reads with probability [read_pct]% (the 95/5 and 50/50
    mixes of the bench), keys drawn uniformly from [keyspace].  The op
    streams are seeded and deterministic. *)
