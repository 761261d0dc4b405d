(** The unified checker context (DESIGN.md S27).

    One record for every checker knob — pool size, certificate cache,
    exploration engine, memory mode and budget token.  Thread a context
    through the [*_ctx] entry points the CLI calls
    ([Stack.verify_all_ctx], [Kv_stack.verify_ctx], [Crash.check_ctx],
    [Dpor.explore_ctx], [Explore.oracle_ctx],
    [Linearizability.refine_cert_ctx]) and the checkers below them.

    Nested checkers share the budget by sharing the context: a
    [Stack.verify_all_ctx] call passes its own context to every edge's
    races/linearizability scan, so one token covers the whole stack.
    Only the edge loop ({!Edges.run}) reads [cache]: the checkers below
    it always run live. *)

module Engine = Ccal_core.Strategy.Engine
(** The exploration-engine descriptor (DESIGN.md S31), re-exported so
    checker callers write [Ctx.Engine.dpor ~depth:8] without reaching
    into [Ccal_core]. *)

type t = {
  jobs : int;  (** domains for the pool; 1 = the sequential oracle *)
  cache : Cache.t option;  (** the edge store; see {!Edges.run} *)
  strategy : Engine.t;
      (** the one name of a scheduler suite (DESIGN.md S41): every
          checker not handed explicit [scheds] derives its suite from
          this descriptor, and the stack, kv and crash edge keys fold
          it.  [Stack.verify_all_ctx]'s [?strategy] (default
          [random:4]) replaces it for a stack run. *)
  memory : Ccal_core.Memory.t;
      (** memory mode the games run under ([Sc] default, [Tso] for the
          buffered machine); folded into every edge key *)
  token : Budget.token;  (** running budget token; see {!with_budget} *)
}

val default : t
(** Sequential, uncached, {!Engine.default} ([dpor:4]), unlimited
    budget. *)

val make :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?strategy:Engine.t ->
  ?memory:Ccal_core.Memory.t ->
  unit ->
  t
(** {!default} with the given knobs.  Raises [Invalid_argument] on an
    invalid [strategy] descriptor (flag on an engine that does not take
    it, non-positive depth) — the same named errors {!Engine.of_string}
    reports. *)

(** {1 Builders} *)

val with_jobs : int -> t -> t
val with_cache : Cache.t -> t -> t

val with_strategy : Engine.t -> t -> t
(** Select the exploration engine.  Validates the descriptor
    ({!Engine.checked}), raising [Invalid_argument] with the named
    error on misuse — an invalid combination never reaches a checker. *)

val with_memory : Ccal_core.Memory.t -> t -> t
(** Select the memory mode ([--memory sc|tso] on the CLI).  Under [Tso]
    the checkers run games on a buffered layer with flusher
    pseudo-threads in the schedule space; the mode is folded into every
    edge key so verdicts never cross modes. *)

val with_budget : Budget.t -> t -> t
(** (Re)starts the token: the deadline epoch is the moment the budget is
    attached, so attach it last, right before running the checker. *)
