(** Linearizability as contextual refinement.

    Filipovic et al. showed linearizability is equivalent to contextual
    refinement, and Liang et al. extended the equivalence to progress
    properties (Sec. 7, "Abstraction for Concurrent Objects") — which is
    why CCAL proves contextual refinement and gets linearizability for
    free.  This checker follows the same route executably: a concurrent
    object is linearizable on a workload when every underlay log, produced
    under a scheduler suite, translates to a log the atomic overlay machine
    reproduces with the same per-thread results. *)

open Ccal_core

type report = {
  runs : int;  (** schedules judged *)
  distinct_logs : int;  (** distinct underlay logs among them *)
  events : int;  (** total underlay events observed *)
}
(** What every refinement check returns: the one refinement report. *)

val refine_ctx :
  ctx:Ctx.t ->
  ?max_steps:int ->
  ?expect_all_done:bool ->
  underlay:Layer.t ->
  impl:Prog.Module.t ->
  overlay:Layer.t ->
  rel:Sim_rel.t ->
  client:(Event.tid -> Prog.t) ->
  tids:Event.tid list ->
  scheds:Sched.t list ->
  unit ->
  (report, Failure.t) result Budget.outcome
(** The refinement check of Thm 2.2: {!Parallel.games} plays the
    underlay game of [client] linked with [impl] on [tids] under each
    scheduler of [scheds], and {!Refinement.judge} judges each play; the
    report (or lowest-indexed failure) is structurally identical for
    every [ctx.jobs] count, and [jobs = 1] (the default) stays on the
    sequential path.  [max_steps] (default 200,000) is the underlay
    game's fuel and the overlay replay's bound.  The scan always runs
    live; whole edges are memoized one level up, by {!Edges.run}.
    [ctx.token] is charged the underlay event
    count per schedule; an [Exhausted] outcome carries the ([Ok]-shaped)
    report over the schedules checked before the budget tripped.  The
    distinct logs are added to the [logs_distinct] counter. *)

val check_ctx :
  ctx:Ctx.t ->
  ?scheds:Sched.t list ->
  underlay:Layer.t ->
  impl:Prog.Module.t ->
  overlay:Layer.t ->
  rel:Sim_rel.t ->
  client:(Event.tid -> Prog.t) ->
  tids:Event.tid list ->
  unit ->
  (report, Failure.t) result Budget.outcome
(** {!refine_ctx}; when no explicit [scheds] are given, the suite is
    derived from [ctx.strategy] over the underlay game of the linked
    client+implementation threads, the very game it will drive.
    [ctx.jobs] parallelises the refinement scan; the verdict is
    identical for every jobs count. *)

val refine_cert_ctx :
  ctx:Ctx.t ->
  Calculus.cert ->
  client:(Event.tid -> Prog.t) ->
  (report, Failure.t) result Budget.outcome
(** {!check_ctx} with the components of a certificate: the domain is
    the certificate's focused thread set, and the suite derives from
    [ctx.strategy] over the certificate's linked game.  Used by the
    {!Stack} soundness edges and the [pipeline] subcommand. *)
