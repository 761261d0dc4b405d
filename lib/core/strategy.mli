(** Strategies.

    Each participant of the concurrency game contributes its play by
    appending events to the global log; its strategy is a deterministic
    partial function from the current log to its next move (Sec. 2).  We
    represent strategies as resumptions: stepping on the current log either
    produces a move (events to append, plus the rest of the strategy),
    blocks (the move is not enabled yet — e.g. an atomic [acq] on a held
    lock), or refuses (the strategy is stuck: no valid transition exists).

    The automata drawn in the paper (e.g. [φ'_acq[i]], [φ_acq[i]]) are
    values of this type; the semantics [⟨P⟩_{L[i]}] of running a program
    over a local layer interface is also a strategy
    ({!Machine.strategy_of_prog}). *)

type t = { step : Log.t -> step_result }

and step_result =
  | Move of Event.t list * outcome
      (** append these events (possibly none) and continue *)
  | Blocked  (** enabled later: ask the environment for more events *)
  | Refuse of string  (** stuck — no valid move *)

and outcome =
  | Done of Value.t  (** the strategy terminated with a result *)
  | Next of t

val of_moves : ?ret:Value.t -> (Log.t -> Event.t list) list -> t
(** [of_moves ms] plays each move function once, in order, then terminates
    with [ret] (default unit). *)

val map_events : (Event.t -> Event.t list) -> t -> t
(** Translate every emitted event (used to relate strategies at two layers
    via a simulation relation). *)

(** {1 Exploration engines}

    How a checker enumerates scheduling prefixes (DESIGN.md S31).  The
    descriptor is a first-class record — algorithm × depth bound ×
    symmetry-reduction flag — threaded through [Verify.Ctx] so every
    checker selects engines uniformly; [Explore.scheds_of_strategy_ctx]
    turns it into a scheduler suite with one [match] on {!Engine.algo}. *)

module Engine : sig
  type algo =
    | Exhaustive  (** all [|tids|^depth] prefixes — the oracle *)
    | Dpor  (** sleep-set DPOR; one sequential DFS walk — the default *)
    | Random  (** round-robin plus [depth] seeded random schedulers *)

  type t = {
    algo : algo;
    depth : int;  (** depth bound; for [Random], the suite size *)
    sym : bool;
        (** symmetry reduction across identical fresh threads — [Dpor]
            only *)
  }

  val default : t
  (** [dpor ~depth:4] — what the checkers use when nothing is selected. *)

  (** {2 Constructors} — validate the descriptor, raising
      [Invalid_argument] with the named error on misuse.  A symmetric
      walk is [{ (dpor ~depth) with sym = true }]. *)

  val dpor : depth:int -> t
  val exhaustive : depth:int -> t
  val random : count:int -> t
  (** [random:count]: round-robin plus [count] seeded random schedulers
      (seeds [1..count]); [count] must be positive, so a
      round-robin-only suite has no descriptor.  The stack's default is
      [random ~count:4], the pipeline's [random ~count:8]. *)

  val checked : t -> t
  (** Identity on valid descriptors ([sym] only on [Dpor], positive
      depth); raises [Invalid_argument] with the named rejection
      otherwise. *)

  val to_string : t -> string
  (** Canonical descriptor, e.g. ["dpor:8,sym"].  Cache-identity
      bearing: {!Fingerprint.engine} folds it into every stack, kv and
      crash edge key. *)

  val of_string : string -> (t, string) result
  (** Parse a [--strategy] argument; rejects unknown engines, malformed
      depths, and invalid flag combinations with a named error — never a
      silent fallback.  The removed [optimal] engine and [dedup] flag are
      rejected with an error that points to [dpor[:DEPTH],sym]. *)

  val pp : Format.formatter -> t -> unit

  type walk_stats = {
    sleep_prunes : int;  (** branches skipped because asleep *)
    sym_prunes : int;  (** branches pruned by thread symmetry *)
  }
  (** Prune counters of one DPOR walk, returned alongside the surviving
      prefixes. *)
end
