(** The (local) layer machine.

    An abstract layer machine based on an interface [L] is the base machine
    extended with the abstract states and primitives of [L] (Sec. 2).  This
    module executes a program of one focused thread over a layer interface:

    {ul
    {- private primitive calls and returns are {e silent} transitions;}
    {- each shared primitive call is a {e query point}: unless the thread
       is in the critical state, the machine first queries the environment
       context for the events appended by other participants, then performs
       the shared call, appending its events to the log (Sec. 3.2);}
    {- a blocked shared call ([Layer.Block]) makes the machine query the
       environment again and retry — this is the spec-level spinning of
       e.g. [φ'_acq[i]] waiting for its ticket to be served.}}

    The same single-move stepper also presents the running program {e as a
    strategy} ({!strategy_of_prog}), realizing the paper's
    "[⟨P⟩_{L[i]}] can also be viewed as a strategy" (Sec. 2). *)

type thread_state = {
  prog : Prog.t;
  abs : Abs.t;  (** private abstract state *)
  crit : bool;  (** currently in the critical state? *)
}

val initial : Layer.t -> Event.tid -> Prog.t -> thread_state

type move_result =
  | Moved of Event.t list * thread_state
      (** performed one shared call (events in order); private steps before
          it were executed silently *)
  | Finished of Value.t * Abs.t
      (** the program returned without reaching another query point *)
  | Blocked_at of thread_state * string
      (** the named shared primitive is not enabled on this log; the
          returned state resumes exactly at the blocked call (the given
          state itself when no silent step came before it) *)
  | Stuck of Layer.stuck_kind * string
      (** no valid transition; the kind distinguishes a detected data race
          ([Layer.Data_race]) from ordinary stuckness *)

val step_move :
  Layer.t ->
  Event.tid ->
  thread_state ->
  Log.t ->
  move_result
(** Execute silent steps then at most one shared primitive call.  At
    most 100,000 silent steps per move, so that a diverging private
    computation is reported as [Stuck] rather than looping. *)

val step_move_counted :
  Layer.t ->
  Event.tid ->
  thread_state ->
  Log.t ->
  move_result * int
(** Like {!step_move} but also returns the number of silent steps taken —
    the interpreter's cost model (see the Sec. 6 performance experiment). *)

val strategy_of_prog : Layer.t -> Event.tid -> Prog.t -> Strategy.t
(** The strategy [⟨P⟩_{L[i]}]: each strategy step performs one move of the
    layer machine on the given log. *)

(** {1 Whole-program local execution} *)

type run_outcome =
  | Done of Value.t
  | No_progress of string
      (** blocked with an exhausted environment (the paper's machines wait
          forever; we bound retries) *)
  | Stuck_run of string
  | Out_of_fuel

type run_result = {
  outcome : run_outcome;
  log : Log.t;  (** final global log, env events included *)
  own_events : Event.t list;  (** chronological events emitted by the focused thread *)
  moves : int;  (** shared moves performed *)
  silent_steps : int;  (** private/silent steps performed — the cost model
                           for the Sec. 6 performance experiment *)
  guar_violation : Log.t option;
      (** earliest log at which the layer's guarantee failed for the
          focused thread, if it ever did *)
}

val run_local :
  ?block_retries:int ->
  ?check_guar:bool ->
  Layer.t ->
  Event.tid ->
  env:Env_context.t ->
  Prog.t ->
  run_result
(** Run a whole program of thread [i] over [L[i]] under environment context
    [env], starting from the empty log: at most 10,000 moves, and
    [block_retries] (default 64) environment queries while blocked.
    [check_guar] (default false) records the first own move that breaks
    the layer's guarantee. *)
