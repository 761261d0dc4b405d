(** Strategy simulation — the executable analogue of Definition 2.1.

    [φ ≤_R φ'] holds iff for any two related environmental event sequences
    and related initial logs, every log produced by [φ] has an [R]-related
    log producible by [φ'].  Our relations are event translations
    ({!Sim_rel}), for which the related overlay log is determined: it is
    the translation of the underlay log.  The check therefore

    {ol
    {- drives the underlay strategy [φ] to completion under an environment
       context, obtaining a log [l];}
    {- translates [l] by [R];}
    {- replays the translated log against the overlay strategy [φ'],
       verifying that [φ'] produces exactly the focused thread's translated
       events at each of its moves, accepts the translated environment
       events in between, and terminates with a related return value.}}

    Passing the check for every environment context in a suite is the
    tested counterpart of the Coq proof obligation discharged by the paper's
    [Fun] rule (Fig. 9); see DESIGN.md (Substitutions).  A failure is a
    {!Failure.t} whose run is the environment context's name: the
    underlay log, the overlay log reconstructed so far, and its length as
    the event index (the underlay log's, when the implementation itself
    got stuck or blocked). *)

type report = {
  envs_checked : int;
  impl_moves : int;  (** total underlay moves across all runs *)
}

type driven = {
  log : Log.t;
  ret : Value.t option;  (** [None] if the strategy did not finish *)
  moves : int;
  blocked : bool;  (** ended blocked with the environment exhausted *)
  refused : string option;
}

val drive :
  ?block_retries:int ->
  Event.tid ->
  Strategy.t ->
  env:Env_context.t ->
  init_log:Log.t ->
  driven
(** Drive a strategy to completion, querying the environment before every
    move (the strategy itself decides nothing about the environment; this
    realizes the alternation of environment and player moves).  A run
    longer than 10,000 moves is refused; [block_retries] (default 64)
    bounds the environment queries a blocked strategy waits through. *)

val check_strategies :
  Sim_rel.t ->
  tid:Event.tid ->
  impl:(unit -> Strategy.t) ->
  spec:(unit -> Strategy.t) ->
  envs:Env_context.t list ->
  (report, Failure.t) result
(** Definition 2.1 on strategies: check [impl ≤_R spec] over the
    environment suite.  Strategies are supplied as thunks because driving
    consumes them (and environment scripts are single-use). *)

val check_progs :
  Sim_rel.t ->
  tid:Event.tid ->
  impl_layer:Layer.t ->
  impl:Prog.t ->
  spec_layer:Layer.t ->
  spec:Prog.t ->
  envs:Env_context.t list ->
  (report, Failure.t) result
(** [check_progs] is {!check_strategies} on [⟨impl⟩_{L_u[i]}] and
    [⟨spec⟩_{L_o[i]}] — the judgment the paper writes
    [L_u[i] ⊢_R impl : spec]. *)
