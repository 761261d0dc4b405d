(** Replay functions.

    All shared abstract state in CCAL is represented by the global log;
    functions that reconstruct the current shared state from the log are
    called {e replay functions} (Sec. 2).  [Rticket] (lock state from
    [FAI_t]/[inc_n] events), [Rshared] (push/pull ownership, Fig. 8) and
    [Rsched] (currently-running thread, Sec. 5.1) are all instances.

    A replay function may be partial: replaying an ill-formed log (e.g. a
    racy push/pull sequence) gets stuck, which is exactly how the paper's
    machines detect data races. *)

type 'a t = Log.t -> ('a, string) result
(** A replay function reconstructing a shared state of type ['a], or
    [Error reason] if the log is ill-formed (the machine is stuck). *)

val fold : init:'a -> step:('a -> Event.t -> ('a, string) result) -> 'a t
(** [fold ~init ~step] replays the log chronologically from [init],
    applying [step] to each event.  This is the shape of every replay
    function in the paper (Fig. 8 is a right fold on the log).  The first
    failing event's [Error] is the result.

    [step] must be a pure function of the state and the event, because
    the fold is incremental (DESIGN.md S32).  Cost model: inside a
    {!scoped} play, a call on a log of [n] events that extends the log
    of this fold's previous call there ([m] events, the same spine
    cells) walks and steps only the [n - m] newer events; a repeated call
    on the same log steps none.  Any other call — outside a scope, or on
    a log that does not extend the remembered one (a DPOR sibling) —
    steps all [n].  Each call adds the events it stepped to the
    [replay.events_folded] counter.  Build a fold once: one built afresh
    on every call never finds a memo. *)

val scoped : (unit -> 'a) -> 'a
(** [scoped f] runs [f] in a fresh memo scope private to the calling
    domain, dropped (and the enclosing one restored) when [f] returns or
    raises.  Every game play ({!Game.run}) is one scope, so a play's
    replay cost is linear in its length. *)

val pure : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val both : 'a t -> 'b t -> ('a * 'b) t
(** Replay two shared states from the same log. *)

val run_exn : 'a t -> Log.t -> 'a
(** Like application, but raises [Failure] on stuck replays; for tests. *)

val well_formed : 'a t -> Log.t -> bool
(** [well_formed r l] holds iff replaying [l] does not get stuck. *)
