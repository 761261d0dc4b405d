(** Crash-refinement certificates (DESIGN.md S30).

    A crash edge packages a whole-machine game over an async-disk
    underlay with an accounting view of its logs; the certificate checks
    that for every schedule of the suite, every enumerated crash point
    inside the play, and every (keep, tear) mask over the writes then in
    flight, post-crash recovery is a prefix-consistent refinement of the
    pre-crash history: no invented ops, and no operation acknowledged by
    a completed [sync] lost.  The checker is generic — edges carry the
    store encoding in closures — so object libraries above the verify
    stack can define edges without a dependency cycle.  The edges run
    through {!Edges.run}, so each certified edge is one {!Edges.row},
    timed and printed by {!Edges}. *)

open Ccal_core

type op = { lsn : int; key : int; value : int }
(** One logged operation, as recovery reads it back: monotonic LSN, key,
    value ([-1] encodes a tombstone). *)

val pp_op : Format.formatter -> op -> unit

type edge = {
  name : string;
  layer : Layer.t;
      (** the {e crash-free} underlay: the certifier applies crashes
          analytically to log prefixes, so the layer must not export the
          crash primitive (which would end every play at the in-game
          crash) *)
  threads : (Event.tid * Prog.t) list;
  max_steps : int;
  is_crash_point : Event.t -> bool;
      (** events after which the platter may differ (writes, syncs); the
          run's start is always a crash point *)
  inflight : Log.t -> int;
  appended : Log.t -> op list;
  acked : Log.t -> int;
  recover : Log.t -> keep:int -> tear:int -> (op list, string) result;
  key_salt : string;
      (** names the implementation variant in cache keys, standing in for
          the closures the fingerprint cannot traverse (the {!Sim_rel}
          naming convention) *)
}

type failure = Failure.t = {
  f_edge : string;
  f_sched : string;
  f_index : int;
  f_reason : string;
  f_lower : Log.t;
  f_upper : Log.t;
  f_masks : (int * int) option;
}
(** The one failure record, re-exported so its fields read as
    [Crash.f_sched].  A crash-refinement failure names the schedule, the
    crash point as [f_index] (events played before the crash, the length
    of [f_lower], the play's prefix there) and the (keep, tear)
    [f_masks]; it prints as
    ["crash-refinement failure: edge E, schedule S, crash point I
    (keep=0xK tear=0xT): reason"].  A play that did not complete fails
    at the end of its log, with no masks.  Deterministic — the
    lowest-indexed schedule's first failing point wins for every jobs
    count and cache temperature. *)

type report = {
  edges : Edges.row list;
  total_recoveries : int;  (** the sum of the rows' ["recoveries"] *)
  total_millis : float;
}

val layout : Edges.layout
(** The crash report's columns, for {!Edges.pp}: a title line with the
    total recoveries, then one row per edge with its ["schedules"],
    ["crash_points"], ["recoveries"] and ["logs"] (distinct logs)
    counts.  The canonical text ([~millis:false]) is bit-identical
    across jobs counts and cache temperatures — what [--report]
    writes. *)

val masks : bound:int -> int -> (int * int) list
(** [masks ~bound m]: the (keep, tear) pairs enumerated over [m]
    in-flight writes.  The full lattice (every subset, each with no tear
    and each single torn kept write) up to [m <= bound]; past the bound,
    a deterministic boundary sample (drop all, contiguous prefixes, keep
    all, torn head/tail). *)

type sched_outcome = {
  so_points : int;
  so_recoveries : int;
  so_log : Log.t;
  so_failure : failure option;
}

val judge : bound:int -> edge -> Sched.t -> Game.outcome -> sched_outcome
(** Check one play's crash points in order, up to the first failing
    (point, keep, tear): the accounting runs once per point, [recover]
    once per mask, all in one replay scope.  An unfinished play fails.
    The failure's [f_edge] is left empty: {!check_ctx} names it. *)

val check_ctx :
  ctx:Ctx.t ->
  ?crashes:int ->
  edge list ->
  (report, failure) result Budget.outcome
(** Certify the edges in order through {!Edges.run}, each over the suite
    derived from [ctx.strategy]; [crashes] bounds full mask enumeration
    (default 4).  Runs through {!Ctx}: jobs, budget and cache apply.
    The budget is polled between edges; an [Exhausted] report lists the
    edges that completed, never one only partly checked.  An
    edge's key folds the engine descriptor ({!Fingerprint.engine}), not
    the suite, so a warm hit walks nothing; a miss derives the suite in
    the edge's [setup], outside its timed window.  Successful rows
    memoize under the ["crash"] cache kind (a hit's [millis] is the
    lookup time); failures always reproduce live. *)
