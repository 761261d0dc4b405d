(** Deterministic fault injection for the verification service.

    A seeded {!plan} describes which faults to inject and at what rate;
    {!with_plan} arms it for the duration of one checker run.  Decision
    points ({!crash}, {!corrupt_store}, {!oversize_store}, {!skew_ns})
    are pure functions of the plan and the call site, never of wall
    clock or domain identity, so an injected run is reproducible.  The
    robustness contract — verdicts bit-identical with and without an
    armed plan, on every jobs count — is pinned by test/test_robust.ml. *)

type plan = {
  seed : int;
  crash : float;  (** per (pool index, attempt) worker-crash probability *)
  corrupt : float;  (** per cache store, corrupt the written entry *)
  skew : float;  (** per clock read, chance of advancing a skew offset *)
  oversize : float;  (** per cache store, pad the entry with junk *)
}

val none : plan
(** No faults; arming it is a no-op. *)

val is_none : plan -> bool

val parse : string -> (plan, string) result
(** Parse a [--inject] spec: comma-separated [KIND:RATE] fields with
    kinds [crash], [corrupt-cache], [skew], [oversize], each rate in
    [0,1], plus an optional [seed:N] (default 1) — e.g.
    ["crash:0.1,corrupt-cache:0.05,seed:7"]. *)

val pp : Format.formatter -> plan -> unit

val with_plan : plan -> (unit -> 'a) -> 'a
(** [with_plan p f] arms [p] process-wide while [f] runs, restoring the
    previously armed plan afterwards (exceptions included).  Arming
    {!none} is free. *)

val armed : unit -> bool
(** True while a non-{!none} plan is armed. *)

(** {1 Decision points}

    Called by the leaf modules; each returns whether the fault fires at
    this site under the armed plan, bumping the session {!stats}. *)

val crash : index:int -> attempt:int -> bool
(** Should the evaluation of suite index [index] crash on its
    [attempt]-th try?  {!Parallel.games} retries with the next attempt
    until one survives, on a worker and inline alike, so final
    evaluations are identical across jobs counts. *)

val corrupt_store : key:string -> bool
val oversize_store : key:string -> bool

val skew_ns : unit -> int64
(** Monotone clock-skew offset to add to [Verify_clock.now_ns]; [0L]
    when no skew is armed.  The offset only grows, so skewed time is
    still monotonic. *)

val corrupt_payload : string -> string
(** Truncate a cache payload so it can no longer deserialize. *)

val oversize_payload : string -> string
(** Pad a cache payload with trailing junk the reader ignores. *)

(** {1 Session statistics} *)

type stats = {
  crashes : int;
  corruptions : int;
  oversized : int;
  skew_jumps : int;
}

val stats : unit -> stats
val reset_stats : unit -> unit
