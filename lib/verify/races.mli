(** Data-race detection through the push/pull memory model.

    "If a program tries to pull a not-free location, or tries to access or
    push to a location not owned by the current CPU, a data race may occur
    and the machine gets stuck.  One goal of concurrent program
    verification is to show that a program is data-race free; in our
    setting, we accomplish this by showing that the program does not get
    stuck" (Sec. 3.1). *)

open Ccal_core

type partial = {
  scanned : int;  (** schedules fully evaluated *)
  clean : int;  (** clean runs among them *)
  others : string list;  (** non-race failure messages, schedule order *)
}
(** What a budget-exhausted scan established before the budget tripped.
    Racy outcomes never appear: a race cuts the scan and wins as a full
    [Race] verdict immediately. *)

type verdict =
  | Race_free of { runs : int }  (** [runs] counts the clean runs *)
  | Race of Failure.t
      (** the racing schedule, its log and the race, at the end of the
          log: the stuck push/pull, or a completed log that fails
          push/pull replay *)
  | Other_failure of string
  | Exhausted of { spent : Budget.spent; partial : partial }
      (** the budget ran out mid-scan; [partial] is what it established *)

val check_ctx :
  ctx:Ctx.t ->
  ?max_steps:int ->
  ?scheds:Sched.t list ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  verdict
(** Run the machine under each scheduler; a [Stuck] status carrying
    [Layer.Data_race] — the structured mark a racing push/pull replay
    leaves — is reported as a race; completed runs are additionally
    re-validated with {!Ccal_machine.Pushpull.race_free}.  Any other
    stuckness (deadlock, fuel exhaustion, an invalid transition) is a
    non-race failure: it is {e collected without aborting the scan}, so a
    genuine race on a later schedule is still found; only when no schedule
    races is [Other_failure] reported (the first failure, annotated with
    the count of further ones).

    When no explicit [scheds] are given the suite comes from
    [ctx.strategy] (default DPOR).  [ctx.jobs] spreads the scan over a
    {!Parallel} domain pool; the verdict is bit-identical for every jobs
    count — a reported [Race] is always the lowest-indexed racing
    schedule.  The scan always runs live, so a race's counterexample is
    reproduced from the real machine, never replayed from disk.

    [ctx.token] is charged one step per game move.  When the budget runs
    out mid-scan the verdict is [Exhausted] carrying a {!partial}.  Under
    a pure step budget the partial is bit-identical for every jobs
    count. *)
