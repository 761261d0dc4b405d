(** Progress properties (Sec. 2, Sec. 4.1).

    Certified concurrent layers enforce termination-sensitive correctness:
    a certified lock is not just mutually exclusive but {e starvation-free}
    — under a fair scheduler and the definite-release rely condition, every
    acquire completes within a bounded number of steps ("the while-loop in
    acq terminates in n × m × #CPU steps", Sec. 4.1). *)

open Ccal_core

type bound_report = {
  runs : int;
  max_steps_used : int;  (** worst completed-run length observed *)
  bound : int;
}

val completes_within_ctx :
  ctx:Ctx.t ->
  ?scheds:Sched.t list ->
  bound:int ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  (bound_report, Failure.t) result Budget.outcome
(** Every run under (fair) schedulers finishes — no deadlock, no stuck
    thread — within [bound] moves.  The scheduler suite is [scheds] when
    given, otherwise derived from [ctx.strategy] (default DPOR); the
    games run under [ctx.memory], as the walk that derives the suite
    does.  [ctx.jobs] spreads the scan over a {!Parallel} domain pool; the
    reported failure is always the lowest-indexed failing schedule,
    identical to the sequential scan.  [ctx.token] is charged one step
    per game move; an [Exhausted] outcome carries the report over the
    schedule prefix evaluated before the budget tripped ([Ok]-shaped: a
    failing schedule cuts the scan and completes with [Error]
    immediately).  A failure names the schedule and fails at the end of
    its play's log. *)

val fifo_order :
  ticket_tag:string ->
  enter_tag:string ->
  Log.t ->
  bool
(** First-in-first-out: per lock, the order of [enter_tag] events (e.g.
    [pull]) matches the order in which threads drew tickets
    ([ticket_tag], e.g. [FAI_t] for the ticket lock or [xchg] for MCS).
    FIFO implies 0-bounded bypass, the strongest starvation-freedom. *)

val waiting_spans :
  ticket_tag:string ->
  enter_tag:string ->
  Log.t ->
  (Event.tid * int) list
(** For each completed acquisition: the number of log events between
    drawing the ticket and entering — the measured wait that the
    starvation-freedom bound dominates. *)

val starvation_bound :
  cs_events:int -> spin_events:int -> ncpus:int -> int
(** The Sec. 4.1 bound: with every critical section over within
    [cs_events] events ([n], from the definite-release rely condition),
    any CPU scheduled within [spin_events] of its competitors' events
    ([m], from scheduler fairness), an acquire completes within
    [n × m × #CPU] events. *)

val check_starvation_free :
  ticket_tag:string ->
  enter_tag:string ->
  cs_events:int ->
  spin_events:int ->
  ncpus:int ->
  Log.t list ->
  (int, string) result
(** Check every waiting span of every log against {!starvation_bound};
    returns the worst span seen. *)
