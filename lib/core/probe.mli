(** The instrumentation engine behind {!Ccal_verify.Telemetry}
    (DESIGN.md S25): named monotonic counters and timed spans, domain-safe
    and ~free when disabled.

    This lives in core so the hot paths ({!Game.play}, the machine linking
    bodies) can be instrumented without a dependency cycle; the stats
    table and Chrome-trace exporters live in [Ccal_verify.Telemetry],
    which re-exports this interface.

    Everything here is verdict-neutral: instrumentation observes the
    checkers, it never influences them.  Counters are additionally
    {e deterministic across jobs counts}: increments made inside a
    [Parallel] job body are diverted into a per-job delta ({!captured})
    and committed only for the deterministically merged prefix, so the
    totals under [jobs = 4] equal the sequential oracle's bit for bit. *)

(** {1 The switch} *)

val enable : unit -> unit
val disable : unit -> unit
(** Off by default: every other entry point is then a single atomic
    read. *)

(** {1 Counters} *)

type counter
(** A named monotonic counter; interned once, bumped without lookups. *)

val counter : string -> counter
(** Intern (or find) the counter of that name. *)

val add : counter -> int -> unit
val incr : counter -> unit

val counters : unit -> (string * int) list
(** Snapshot of all non-zero counters, sorted by name. *)

val get : string -> int

val diff_counters :
  (string * int) list -> (string * int) list -> (string * int) list
(** [diff_counters before after]: per-name growth between two
    {!counters} snapshots (counters are monotone). *)

(** {1 Deterministic capture}

    Used by the parallel executor: a job body's counter increments are
    collected into a delta instead of the globals, and the executor
    commits the deltas of exactly the jobs a sequential early-exit scan
    would have run, in index order. *)

type delta

val captured : (unit -> unit) -> delta option
(** Run [f] with this domain's counter increments diverted into a fresh
    delta.  Passthrough ([None]) when disabled.  [f] must not raise (the
    executor's job bodies never do). *)

val commit : delta option -> unit
(** Apply a delta via {!add} — so a scan nested inside another capture
    folds into the enclosing delta, keeping the outer merge
    deterministic too. *)

(** {1 Spans} *)

type span_ev = {
  name : string;
  ts_ns : int64;
  dur_ns : int64;
  dom : int;  (** recording domain — one Chrome-trace track each *)
  depth : int;  (** nesting depth within that domain at record time *)
}

val span : string -> (unit -> 'a) -> 'a
(** Time [f] on this domain's track; nested calls record increasing
    [depth].  Spans carry wall-clock and are {e not} jobs-deterministic
    (unlike counters); per-domain buffers are capped so a forgotten
    {!enable} stays bounded. *)

val spans : unit -> span_ev list
(** All recorded spans, grouped by domain and ordered by start time.
    Meaningful once the pools are idle (between batches / after runs). *)

val reset : unit -> unit
(** Zero every counter and drop every span (tests, benchmarks). *)

(** {1 The standard counters} *)

val schedules_run : counter
(** Bumped once per completed {!Game.play}. *)

val replay_steps : counter
(** Bumped by each {!Game.play} with its shared + silent step total — the
    log-replay work the run performed. *)

val events_folded : counter
(** [replay.events_folded]: bumped by each [Replay.fold] call with the
    events it actually stepped — the replay-function work, which the
    incremental fold keeps linear in a play's length. *)

val sleep_set_prunes : counter
(** Bumped by [Dpor.explore] with the branches sleep sets skipped. *)

val logs_distinct : counter
(** Bumped where checkers count distinct logs ([Dpor.explore],
    [Linearizability.check]). *)

val race_checks : counter
(** Bumped once per schedule the race checker examines. *)
