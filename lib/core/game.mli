(** Whole-machine game semantics.

    Each run of a client program [P] over [L[D]] is a play of the game
    involving the members of [D] plus a scheduler (Sec. 2): at every round
    the scheduler picks a thread, which makes one move (one shared
    primitive call, silent steps included) using its strategy; the emitted
    events are appended to the global log.  A thread whose next shared call
    is not enabled ([Layer.Block]) cannot be the mover; if no thread can
    move, the machine is deadlocked.

    The behaviour [⟦P⟧_{L[D]}] is the set of logs generated under all
    schedulers; {!behaviors} approximates it over a scheduler suite. *)

type config = {
  layer : Layer.t;
  threads : (Event.tid * Prog.t) list;  (** the domain [D] with each thread's program *)
  sched : Sched.t;
  max_steps : int;  (** bound on total moves (fuel) *)
  log_switches : bool;
      (** record a scheduling event whenever the mover changes, as the
          multicore hardware model does (Sec. 3.1) *)
  check_guar : bool;  (** check the layer guarantee after every move *)
  memory : Memory.t;
      (** memory mode (DESIGN.md S29): under {!Memory.Tso} a buffered
          layer gets one flusher pseudo-thread per real thread, making
          buffer drains explicit scheduler moves *)
  stop : (unit -> bool) option;
      (** cooperative cancellation: polled once per move; when it turns
          true the game ends with {!Cancelled} and its play prefix *)
}

val config :
  ?max_steps:int ->
  ?log_switches:bool ->
  ?check_guar:bool ->
  ?memory:Memory.t ->
  ?stop:(unit -> bool) ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  Sched.t ->
  config

val flusher_threads :
  memory:Memory.t ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  (Event.tid * Prog.t) list
(** The flusher pseudo-threads a game synthesises for [threads]: one per
    real thread (id {!Memory.flusher_tid}), each an infinite loop of the
    layer's flush primitive for its CPU.  Empty under [Sc] and for
    layers without the flush primitive.  Exposed so the DPOR walk can
    enumerate flush moves over exactly the threads the replayed game
    will run.

    A deadlock made only of blocked flushers reports {!All_done}: the
    flush primitive blocks exactly on an empty buffer, so such a game
    has drained every buffer and finished every real thread.  Flusher
    ids never appear in {!Deadlock} lists or [results]. *)

val crash_threads : Layer.t -> (Event.tid * Prog.t) list
(** The crash pseudo-thread a game synthesises for a crash-enabled layer
    (DESIGN.md S30): one thread (id {!Durability.crash_tid}) whose
    single move fires the layer's {!Durability.crash_tag} primitive with
    the adversarial masks (drop every in-flight write).  Empty for
    layers without the crash primitive. *)

val pseudo_threads :
  memory:Memory.t ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  (Event.tid * Prog.t) list
(** All pseudo-threads the game appends to the real domain:
    {!flusher_threads} followed by {!crash_threads}.  This is the single
    synthesis point, shared by {!run} and by the DPOR and exhaustive
    explorers, so the negative-tid namespace (crash thread at [-1],
    flusher for cpu [c] at [-c-1]) cannot silently collide.
    Raises [Invalid_argument], naming the tid, on a real thread with a
    negative id and on a duplicated real or pseudo tid.  Pseudo tids never appear in {!Deadlock}
    lists or [results]. *)

type status =
  | All_done
  | Deadlock of Event.tid list  (** every unfinished thread is blocked *)
  | Stuck of Event.tid * Layer.stuck_kind * string
      (** a thread has no valid transition; [Layer.Data_race] marks a
          detected data race, [Layer.Invalid_transition] everything else *)
  | Out_of_fuel
  | Cancelled  (** the [stop] closure tripped (budget/cancellation) *)

type outcome = {
  log : Log.t;
  results : (Event.tid * Value.t) list;  (** return values of finished threads *)
  status : status;
  steps : int;  (** moves performed *)
  silent_steps : int;
  guar_violations : (Event.tid * Log.t) list;
      (** moves after which the guarantee failed (empty when not checked) *)
}

val run : config -> outcome
(** Play one game.  At each move the scheduler is offered the pending
    threads in [threads] order.  A pick whose next shared call blocks at
    the current log leaves the offer and the scheduler is asked again;
    the blocked thread is offered again at the next move.  When no
    thread is left to offer, the game ends with {!Deadlock} listing
    every pending real thread in [threads] order. *)

val replay : config -> outcome
(** [replay] is {!run}, kept under this name for the benchmark harness
    in perfbench/. *)

val behaviors :
  ?max_steps:int ->
  ?log_switches:bool ->
  ?check_guar:bool ->
  ?memory:Memory.t ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  Sched.t list ->
  outcome list
(** Run the same machine under each scheduler of the suite. *)

val successful : outcome -> bool
(** [All_done] with no guarantee violation. *)

val pp_status : Format.formatter -> status -> unit
