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
    on every call never finds a memo.  A fold with a parameter is built
    once too: as a {!family} keyed by it, or once per layer when the
    layer fixes it. *)

val scoped : (unit -> 'a) -> 'a
(** [scoped f] runs [f] in a fresh memo scope private to the calling
    domain, dropped (and the enclosing one restored) when [f] returns or
    raises.  Every game play ({!Game.play}) is one scope, so a play's
    replay cost is linear in its length. *)

type route =
  | Key of int  (** the event concerns this key alone *)
  | Every  (** the event concerns every key, including unseen ones *)
  | Skip  (** the event concerns no key *)

val family :
  route:(Event.t -> route) ->
  init:'a ->
  step:('a -> Event.t -> ('a, string) result) ->
  int ->
  'a t
(** [family ~route ~init ~step k] replays what a per-key
    [fold ~init ~step] over only the events [route]d to [k] (by [Key k]
    or [Every]) would, error included.  Partially applied, it is one
    {!fold} whose state maps each key to its own result: every key keeps
    its own first error, and all keys share one memo.  This is the form
    a replay function with a parameter (a CPU, a lock, a channel) takes:
    build the family once, then look keys up in it. *)

val on_objects : string list -> Event.t -> route
(** [on_objects tags e] routes an event whose tag is in [tags] to the
    object its first argument names ({!Event.obj_of_args}); every other
    event is [Skip]. *)

val well_formed : 'a t -> Log.t -> bool
(** [well_formed r l] holds iff replaying [l] does not get stuck. *)
