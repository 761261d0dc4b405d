(** Rely and guarantee conditions.

    In a concurrent layer interface [L[A] = (L, R, G)] (Sec. 3.2), the rely
    condition [R] specifies the set of acceptable environment contexts and
    the guarantee condition [G] the invariant that locally-generated events
    maintain.  Both are per-thread invariants over the global log
    ([R, G ∈ Id ⇀ Inv], [Inv ∈ Log → Prop], Fig. 7).

    Invariants are named so that the side conditions of the layer calculus
    (Fig. 9) that require syntactically equal conditions ([Hcomp]) can be
    checked, and so that counterexamples print usefully. *)

type t = {
  name : string;
  holds : Event.tid -> Log.t -> bool;
      (** [holds i l]: the events of thread [i] in [l] satisfy the
          invariant. *)
}

val always : t
(** The trivial invariant (every log acceptable). *)

val make : string -> (Event.tid -> Log.t -> bool) -> t

val conj : t -> t -> t
(** Conjunction — used by [Pcomp]'s composed rely ([R_A ∩ R_B]). *)

val same : t -> t -> bool
(** Name-based syntactic equality, used by the [Hcomp] side conditions. *)

