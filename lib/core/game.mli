(** Whole-machine game semantics.

    Each run of a client program [P] over [L[D]] is a play of the game
    involving the members of [D] plus a scheduler (Sec. 2): at every round
    the scheduler picks a thread, which makes one move (one shared
    primitive call, silent steps included) using its strategy; the emitted
    events are appended to the global log.  A thread whose next shared call
    is not enabled ([Layer.Block]) cannot be the mover; if no thread can
    move, the machine is deadlocked.

    The behaviour [⟦P⟧_{L[D]}] is the set of logs generated under all
    schedulers; [Ccal_verify.Parallel.games] approximates it over a
    scheduler suite, judging each play. *)

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
      (** memory mode (DESIGN.md S29): under {!Memory.Tso} buffer drains
          are flusher moves ({!pseudo_threads}) *)
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

val pseudo_threads :
  memory:Memory.t ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  (Event.tid * Prog.t) list
(** The pseudo-threads a game appends to the real domain, the single
    synthesis point, run once per {!table}:
    {ul
    {- under [Tso] on a layer with the flush primitive, one flusher per
       real thread (id {!Memory.flusher_tid}), an infinite loop of the
       flush primitive for its CPU (DESIGN.md S29).  It blocks exactly
       on an empty buffer, so a deadlock made only of blocked flushers
       reports {!All_done};}
    {- on a layer with the crash primitive, one crash thread (id
       {!Durability.crash_tid}) whose single move fires it with the
       adversarial masks, dropping every in-flight write (S30).}}
    Raises [Invalid_argument], naming the tid, on a real thread with a
    negative id and on a duplicated real or pseudo tid.  Pseudo tids
    never appear in {!Deadlock} lists or [results]. *)

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

type table
(** What a game depends on only through its layer, threads and memory
    mode: the played threads and their pick orders.  Immutable, so every
    play of a suite, on any domain, shares it.  No thread states. *)

val table : memory:Memory.t -> Layer.t -> (Event.tid * Prog.t) list -> table
(** The table of [threads] over [layer]: calls no [init_abs] and no
    primitive.  Raises [Invalid_argument] as {!pseudo_threads} does. *)

val played : table -> (Event.tid * Prog.t) list
(** The threads every play runs: the real threads, then
    {!pseudo_threads}.  This is the alphabet the DPOR walk and the
    exhaustive suites range over, so walk, count and replay agree. *)

val layer : table -> Layer.t

val play :
  ?max_steps:int ->
  ?log_switches:bool ->
  ?check_guar:bool ->
  ?stop:(unit -> bool) ->
  table ->
  Sched.t ->
  outcome
(** Play one game of the table, with the {!config} defaults.  It starts
    every played thread ({!Machine.initial}, in order) before its first
    move.  At each move the scheduler is offered the pending threads in
    thread order.  A pick whose next shared call blocks leaves the offer
    and the scheduler is asked again; the blocked thread is offered again
    at the next move.  With no thread left to offer, the game ends with
    {!Deadlock} listing every pending real thread in thread order. *)

val run : config -> outcome
(** One {!play} of the config's {!table}. *)

val replay : config -> outcome
(** [replay] is {!run}, kept under this name for the benchmark harness
    in perfbench/. *)

val successful : outcome -> bool
(** [All_done] with no guarantee violation. *)

val pp_status : Format.formatter -> status -> unit
