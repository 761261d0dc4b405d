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
       and the same return value.}}

    {!judge} does steps 2 and 3 for one play; the suite is played by
    [Ccal_verify.Parallel.games] through {!Ccal_verify.Linearizability}. *)

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

val judge :
  max_steps:int ->
  ?expect_all_done:bool ->
  overlay:Layer.t ->
  rel:Sim_rel.t ->
  client:(Event.tid -> Prog.t) ->
  tids:Event.tid list ->
  Sched.t ->
  Game.outcome ->
  (Log.t, Failure.t) result
(** [judge ~overlay ~rel ~client ~tids sched outcome] judges one play of
    the underlay game of [P ⊕ M]: translate its log by [rel], replay it
    against the overlay machine running [client] on [tids] (at most
    [max_steps] replay steps), and compare per-thread results.  [Ok]
    carries the underlay log.  When [expect_all_done]
    (default true), an underlay play that deadlocked, got stuck or ran
    out of fuel is itself a failure — the progress half of the
    termination-sensitive refinement.  The scan that plays the underlay
    game ({!Ccal_verify.Linearizability}) picks its memory mode; the
    overlay spec is replayed as ever, so under [Tso] the relation must
    translate the buffering events away.

    A failure is a {!Failure.t} naming the schedule: the underlay log,
    the overlay log replayed so far and its length as the event index —
    the underlay log's length when the underlay play did not
    complete. *)
