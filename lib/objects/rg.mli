(** Rely/guarantee building blocks shared by the lock objects.

    The paper's lock layers impose two conditions on every participant
    (Sec. 2, Sec. 4.1): {e well-bracketing} — lock-related events follow
    the lock protocol (a release only by the holder, no re-acquisition of a
    held lock) — and {e definite release} — a held lock is released within
    a bounded number of steps (the "definite action" used to prove
    starvation-freedom). *)

val lock_wellformed : acq_tag:string -> rel_tag:string -> Ccal_core.Rely_guarantee.t
(** [holds i l]: thread [i]'s [acq]/[rel] events in [l] are well bracketed
    per lock: it never releases a lock it does not hold and never
    re-acquires a lock it already holds. *)

val releases_within :
  bound:int -> acq_tag:string -> rel_tag:string -> Ccal_core.Rely_guarantee.t
(** [holds i l]: no lock is held by [i] for more than [bound] subsequent
    events of the log — the executable form of "the held locks will
    eventually be released" (Sec. 2), with "eventually" bounded so that
    the invariant is checkable on finite logs. *)

val lock_condition :
  ?bound:int -> acq_tag:string -> rel_tag:string -> unit -> Ccal_core.Rely_guarantee.t
(** Conjunction of the two conditions above; [bound] defaults to 64. *)
