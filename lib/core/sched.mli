(** Schedulers.

    The scheduler acts as the judge of the concurrency game: at each round
    it picks one participant to make a move (Sec. 2).  The behaviour of a
    whole layer machine is the set of logs generated under all possible
    schedulers; experiments therefore run suites of schedulers: round-robin,
    seeded pseudo-random (both fair), and explicit traces used by the
    exhaustive interleaving enumerator of the verification harness.

    A scheduler is data (DESIGN.md S36): {!Game.run} reads the variant
    and picks over its thread table, so a built-in scheduler costs no
    list, sort or closure per move, and one value can drive any number
    of games.  Each pick is made among the [c] threads offered at that
    move: the unfinished ones, minus those already found blocked in it. *)

type pick = step:int -> Log.t -> runnable:Event.tid list -> Event.tid option
(** A {!Custom} choice among [runnable] (never empty, in thread order);
    [None], or a thread not in [runnable], means the game falls back to
    the first runnable thread. *)

type t =
  | Round_robin  (** the [(step mod c)]-th of the [c] offered threads, by tid *)
  | Random of int
      (** seed [s]: the [(splitmix (s * 1_000_003 + step) mod c)]-th
          offered thread, in thread order (as below) *)
  | Trace of { name : string; tagged : bool; choices : Event.tid list }
      (** the next choice that is offered, skipping the rest; then
          {!Round_robin}.  [tagged]: named [name:[c1,...,cn]] *)
  | Biased of { favored : Event.tid; ratio : int; seed : int }
      (** with [h = splitmix (seed * 7_919 + step)]: [favored] if offered
          and [h mod (ratio + 1) <> 0], else the [(h / 7 mod c)]-th *)
  | Custom of { name : string; pick : pick }

val name : t -> string
(** The scheduler's name, which {!Fingerprint.scheds} folds into cache
    keys.  A tagged trace's name is formatted here, on demand. *)

val round_robin : t
(** Fair: cycles through thread ids in increasing order. *)

val random : seed:int -> t
(** Deterministic pseudo-random scheduler (splitmix-style hash of
    [seed, step]); fair with probability 1, and reproducible. *)

val of_trace : ?name:string -> ?tag:string -> Event.tid list -> t
(** Follow the given choice list; entries that are not currently runnable
    are skipped; after the trace is exhausted, behaves like
    {!round_robin}.  The cursor belongs to the play, not to the value.
    [name] defaults to ["trace"]; a [tag] names the trace
    [tag:[c1,...,cn]] instead.  Names are cache keys: the DPOR ([dpor])
    and exhaustive ([exh]) tags must never change. *)

val biased : favored:Event.tid -> ratio:int -> seed:int -> t
(** Picks [favored] [ratio] times more often than others when runnable —
    an adversarial scheduler used to hunt starvation.  Named
    [biased(favored xratio seed=seed)]. *)

val default_suite : seeds:int -> t list
(** Round-robin plus [seeds] random schedulers — the default scheduler
    suite of the checkers. *)

val splitmix : int -> int
(** The underlying avalanche hash (exposed for the verification harness's
    random choices). Result is non-negative. *)
