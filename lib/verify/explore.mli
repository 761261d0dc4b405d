(** Interleaving exploration.

    The behaviour of a layer machine is the set of logs under {e all}
    schedulers (Sec. 2); the checkers approximate the quantifier by
    enumerating scheduling prefixes up to a depth bound and topping up
    with seeded random fair schedules.  This is the bounded substitute for
    the paper's ∀-quantified Coq proofs (DESIGN.md, Substitutions).

    {!exhaustive_scheds} is the reference oracle: all [|tids|^depth]
    prefixes, no pruning.  Which engine actually generates a checker's
    suite is selected by the [Strategy.Engine] descriptor in [Ctx.t]
    (DESIGN.md S31); the checkers dispatch through
    {!scheds_of_strategy_ctx} and never name an engine module.  The
    oracle remains available both as the [exhaustive] engine and as the
    ground truth {!oracle_ctx} compares [dpor] against. *)

open Ccal_core

val exhaustive_scheds : tids:Event.tid list -> depth:int -> Sched.t list
(** All [|tids|^depth] scheduling prefixes (round-robin afterwards); an
    empty [tids] has the one empty prefix.  Use small depths: the count
    is exponential. *)

(** {1 Suites from the strategy} *)

val scheds_of_strategy_ctx :
  ctx:Ctx.t ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  Sched.t list
(** The suite [ctx.strategy] selects, in the form the checkers consume:
    [dpor] prefixes from {!Dpor.walk} (one sequential walk), every
    [exhaustive] prefix over the real and pseudo threads, or, for
    [random:N], round-robin plus [N] seeded random schedulers
    ({!Sched.default_suite}).  Prefix suites become trace schedulers with
    content-bearing names ([tag:[t0,t1,…]]); the [dpor] walk needs the
    layer and threads to be the ones the returned schedulers will
    drive.  Raises [Invalid_argument] with the named error on an invalid
    descriptor.  Every suite is identical for every jobs count; the walk
    is never charged to the budget (see {!Dpor.explore_ctx}). *)

(** {1 Running suites} *)

val run_all_ctx :
  ctx:Ctx.t ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  Sched.t list ->
  Game.outcome list Budget.outcome
(** Run the machine under every scheduler.  [ctx.jobs] spreads the runs
    over a {!Parallel} domain pool; the outcome list keeps schedule
    order; the games always run live.  [ctx.token] is charged per game
    step; an [Exhausted] result carries
    the outcome prefix that was fully evaluated before the budget
    tripped, bit-identical for every jobs count under a step budget. *)

val all_logs : Game.outcome list -> Log.t list

(** {1 The oracle comparison} *)

type oracle = { runs : int; logs : Log.t list; agree : bool }

val oracle_ctx :
  ctx:Ctx.t ->
  independence:Dpor.independence ->
  sym:bool ->
  depth:int ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  Dpor.result ->
  oracle Budget.outcome
(** The one DPOR soundness check, given the walk's own arguments: run
    [runs] schedules of the [exhaustive] engine's suite at [depth] (real
    and pseudo-thread tids) and compare their distinct [logs] with the
    result's [distinct] logs ({!Log.subset}); under [Commuting_events]
    [logs] holds the first exhaustive log of each class, compared by
    {!Dpor.subset_traces} on their {!Dpor.trace_key}s.  [agree] is
    inclusion plus equal sizes, or inclusion alone under [sym].  Spans:
    [explore.oracle], [explore.agree].  An [Exhausted] oracle compares
    only the schedules that ran: no verdict. *)
