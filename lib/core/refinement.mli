(** Contextual refinement — the soundness theorem (Thm 2.2).

    From [L'[D] ⊢_R M : L[D]] the paper concludes that for any client
    program [P], every log in [⟦P ⊕ M⟧_{L'[D]}] has an [R]-related log in
    [⟦P⟧_{L[D]}].  We check this directly: for each scheduler in a suite,

    {ol
    {- run the whole-machine game for [P ⊕ M] over the underlay, obtaining
       a log [l];}
    {- translate [l] by [R];}
    {- replay the translated log against the overlay machine running [P]:
       the schedule is {e induced} by the translated log (the paper's
       "picking a suitable scheduler for every interleaving", Thm 3.1),
       and each overlay thread must produce exactly its translated events
       and the same return value.}} *)

type failure = {
  sched_name : string;
  reason : string;
  under_log : Log.t;
  over_log : Log.t;  (** overlay log reconstructed so far *)
}

type report = {
  scheds_checked : int;
  logs : Log.t list;  (** underlay logs observed (a corpus reusable for
                          [Calculus.compat] checks) *)
  translated : Log.t list;
}

val pp_failure : Format.formatter -> failure -> unit

val replay_multi :
  ?max_steps:int ->
  ?allow_blocked_at_end:bool ->
  Layer.t ->
  (Event.tid * Prog.t) list ->
  Log.t ->
  ((Event.tid * Value.t) list, string * Log.t) result
(** [replay_multi overlay threads l] checks that the overlay machine can
    produce exactly the log [l] under the schedule induced by [l], and
    returns the per-thread results.  When [allow_blocked_at_end] (used for
    refining partial runs, e.g. deadlocked behaviours), a thread that ends
    the log blocked on a primitive is accepted rather than an error.
    Exposed for the multicore/multithread linking checks (Thm 3.1,
    Thm 5.1). *)

val check_sched_stop :
  ?max_steps:int ->
  ?expect_all_done:bool ->
  ?stop:(unit -> bool) ->
  ?memory:Memory.t ->
  underlay:Layer.t ->
  impl:Prog.Module.t ->
  overlay:Layer.t ->
  rel:Sim_rel.t ->
  client:(Event.tid -> Prog.t) ->
  tids:Event.tid list ->
  Sched.t ->
  [ `Checked of (Log.t * Log.t, failure) result | `Interrupted ]
(** The per-schedule body of {!check}: run the underlay game under one
    scheduler, translate, replay against the overlay, compare per-thread
    results; [`Checked] carries the (underlay, translated) log pair or the
    failure.  Pure up to its own game state, so the parallel checkers
    ({!Ccal_verify.Linearizability}) can evaluate schedules on any
    domain.  [stop] is a cooperative-cancellation closure threaded into
    the underlay game: when it trips mid-run the schedule reports
    [`Interrupted] instead of a verdict, and the budgeted checkers count
    it toward an [Exhausted] result (DESIGN.md S27).  [?memory] selects
    the memory mode of the {e underlay} game only (the overlay spec is
    replayed as ever); under [Tso] the relation must translate the
    buffering events away. *)

val check :
  ?max_steps:int ->
  ?expect_all_done:bool ->
  underlay:Layer.t ->
  impl:Prog.Module.t ->
  overlay:Layer.t ->
  rel:Sim_rel.t ->
  client:(Event.tid -> Prog.t) ->
  tids:Event.tid list ->
  scheds:Sched.t list ->
  unit ->
  (report, failure) result
(** Check [∀P-run. ⟦P ⊕ M⟧_{L'[D]} ⊑_R ⟦P⟧_{L[D]}] for the given client
    over the scheduler suite.  When [expect_all_done] (default true), an
    underlay run that deadlocks or gets stuck is itself a failure — this is
    the progress half of the termination-sensitive refinement. *)

val check_cert :
  ?max_steps:int ->
  ?expect_all_done:bool ->
  Calculus.cert ->
  client:(Event.tid -> Prog.t) ->
  scheds:Sched.t list ->
  (report, failure) result
(** {!check} with the components of a certificate; the domain is the
    certificate's focused thread set. *)
