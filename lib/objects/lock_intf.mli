(** The atomic spinlock interface [Llock] (Sec. 2, Sec. 4.1).

    At this level a lock is a pair of atomic primitives:

    {ul
    {- [acq(b)] — a single event; {e blocks} while the lock is held (there
       is no spinning to observe any more), enters the critical state, and
       returns the lock-protected value (the paper's pull of the protected
       location happens inside the lock acquisition, Fig. 10);}
    {- [rel(b, v)] — a single event publishing [v] as the new protected
       value and leaving the critical state.}}

    Both the ticket lock and the MCS lock implement this same interface,
    which is what lets lock implementations be interchanged freely without
    affecting any proof in higher modules (Sec. 6).

    The interface carries the lock rely/guarantee conditions: environment
    participants keep their lock events well-bracketed and release held
    locks within a bounded number of steps (the fairness/definite-release
    conditions of Sec. 2 used for starvation-freedom). *)

val acq_tag : string
val rel_tag : string

type lock_state = {
  holder : Ccal_core.Event.tid option;
  value : Ccal_core.Value.t;  (** current protected value (initially 0) *)
}

val replay_lock : int -> lock_state Ccal_core.Replay.t
(** Lock state of lock [b], replayed from [acq]/[rel] events; stuck on
    ill-formed logs (acquisition of a held lock, release by a
    non-holder). *)

val acq_prim : string * Ccal_core.Layer.prim
val rel_prim : string * Ccal_core.Layer.prim

val condition : ?bound:int -> unit -> Ccal_core.Rely_guarantee.t
(** Well-bracketing plus bounded release, over the atomic tags. *)

val layer : ?bound:int -> ?extra:(string * Ccal_core.Layer.prim) list -> string -> Ccal_core.Layer.t
(** An atomic lock layer with the given name, optionally extended with
    pass-through primitives (the paper's [f], [g] of Fig. 3). *)

val mutual_exclusion : Ccal_core.Log.t -> bool
(** No two threads hold the same lock simultaneously at any prefix — the
    safety property of Sec. 4.1, checked over a whole log. *)

val handoffs : int -> Ccal_core.Log.t -> Ccal_core.Event.tid list
(** The sequence of threads that acquired lock [b], in order (used to
    compare lock-acquisition order across layers). *)

(** {1 The certification recipe}

    Both lock implementations certify against [Llock] the same way
    (Sec. 6): one [Fun]-rule obligation over the same argument vectors and
    the same environment contexts.  Only the bottom layer, the modules and
    the simulation relation differ, and an {!impl} carries them. *)

type impl = {
  l0 : ?memory:Ccal_core.Memory.t -> unit -> Ccal_core.Layer.t;
      (** the bottom interface over the memory mode's hardware layer *)
  c_module : unit -> Ccal_core.Prog.Module.t;  (** [acq]/[rel] as C semantics *)
  asm_module : unit -> Ccal_core.Prog.Module.t;  (** their compiled assembly *)
  rel : Ccal_core.Sim_rel.t;
      (** erases the lock's own traffic and renames [pull ↦ acq],
          [push ↦ rel] *)
}

val prim_tests :
  ?locks:int list -> ?values:int list -> unit -> Ccal_core.Calculus.prim_tests
(** Default argument vectors for the [Fun]-rule obligations: [acq] from
    the free lock and after a release of each value, [rel] of each value
    by the holder. *)

val env_suite :
  impl -> ?memory:Ccal_core.Memory.t -> unit -> Ccal_core.Calculus.env_suite
(** Environment suites whose participants run real acquire/release rounds
    of the implementation over its bottom layer (so all environment events
    carry replay-consistent return values): the silent context, then one
    and two rivals (threads 9 and 8, minus the focused one) on lock 0,
    each answering 1 or 2 rounds per query.  Under [Tso] every context is
    wrapped with {!Ccal_machine.Tso.with_drain}: the environment commits
    pending stores at each query point.  For MCS this is load-bearing —
    the focused CPU's own buffered [locked := 1] store would otherwise be
    forwarded to its spin loop forever. *)

val certify :
  impl ->
  ?max_moves:int ->
  ?memory:Ccal_core.Memory.t ->
  ?underlay:Ccal_core.Layer.t ->
  ?overlay:Ccal_core.Layer.t ->
  ?focus:Ccal_core.Event.tid list ->
  ?use_asm:bool ->
  unit ->
  (Ccal_core.Calculus.cert, Ccal_core.Calculus.error) result
(** [L0[A] ⊢_R M : Llock[A]] via the [Fun] rule, with the C semantics by
    default and the compiled assembly when [use_asm].  [?memory]
    certifies over the corresponding hardware machine; under [Tso] the
    relation composes {!Ccal_machine.Tso.drop_buffering} in front of
    [impl.rel].  [?underlay] and [?overlay] replace [impl.l0 ~memory ()]
    and [Llock] (renamed or extended layers); the environments do not. *)
