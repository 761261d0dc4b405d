(** The litmus conformance runner: enumerate the reachable outcomes of
    each {!Ccal_machine.Litmus} test under [ctx.memory] with the DPOR
    explorer and pin them against the hand-derived x86-TSO tables.

    The exploration uses {!Dpor.Commuting_events} at the test's declared
    depth: commuting reorderings preserve read values and final memory,
    so the surviving prefix frontier covers every reachable outcome
    tuple while collapsing the interleaving blow-up (IRIW has millions
    of interleavings but a handful of Mazurkiewicz classes).  Under
    [Tso] the flusher pseudo-threads enter the exploration like any
    other thread, so delayed commits are enumerated, and every replayed
    game ends with drained buffers. *)

open Ccal_core

type report = {
  name : string;
  memory : Memory.t;
  observed : int list list;  (** reachable outcome tuples, sorted distinct *)
  expected : int list list;
  errors : string list;  (** extraction failures; must be empty *)
  schedules : int;  (** surviving DPOR prefixes replayed *)
}

val ok : report -> bool
(** No errors and [observed = expected] — exact conformance, both
    directions: every allowed outcome reached, every forbidden outcome
    unreachable. *)

val run_both :
  ?tests:Ccal_machine.Litmus.test list ->
  ctx:Ctx.t ->
  unit ->
  (report * report) list
(** Each test (default: the whole corpus) explored under [Sc] and under
    [Tso] with the same ctx knobs — [(sc_report, tso_report)] pairs for
    the per-mode outcome table. *)

val pp_report : Format.formatter -> report -> unit

val pp_table : Format.formatter -> (report * report) list -> unit
(** The per-mode outcome table uploaded by the CI memory-model leg:
    one row per (test, outcome), marked reachable yes/no per mode. *)
