(** Concurrent layer interfaces.

    A layer interface [L[A] = (L, R, G)] (Sec. 3.2) equips an abstract
    machine with a collection of primitives [L], a rely condition [R]
    describing acceptable environment contexts, and a guarantee condition
    [G] on locally-generated events.

    Primitives come in two kinds, mirroring Sec. 3.1's transition classes:
    {ul
    {- {e private} primitives are silent: they read/update the calling
       thread's private abstract state and produce no events;}
    {- {e shared} primitives are the only means of accessing and appending
       events to the global log.  Their semantics is a function of the
       current log — the shared state is always reconstructed by a replay
       function, never stored (Sec. 2).}} *)

type crit =
  | Enter  (** this call enters the critical state (paper: gray states) —
               the layer machine stops querying its environment context
               until the critical state is exited (Sec. 2, Fig. 8) *)
  | Exit  (** this call exits the critical state *)
  | Keep  (** no change *)

type stuck_kind =
  | Invalid_transition
      (** the machine got stuck for an ordinary reason: bad arguments, a
          fuel bound, an ill-formed log, an unknown primitive… *)
  | Data_race
      (** the stuck transition specifically witnesses a data race — e.g.
          the push/pull replay of Fig. 8 returning [None] because two
          threads hold overlapping ownership.  Checkers classify on this
          constructor rather than scanning message strings. *)

type shared_result =
  | Step of {
      events : Event.t list;  (** events appended by this call, in order *)
      ret : Value.t;
      crit : crit;
    }
  | Block
      (** the primitive cannot fire in the current log (e.g. an atomic
          [acq] finding the lock held).  The machine waits for more
          environment events; in a whole-machine game the scheduler must
          pick another thread. *)
  | Stuck of string
      (** no valid transition for an ordinary reason (bad arguments,
          ill-formed log, …) — classified as {!Invalid_transition}. *)
  | Race of string
      (** no valid transition because this call witnesses a data race —
          the push/pull replay function of Fig. 8 returning [None].
          Classified as {!Data_race} so checkers never have to scan
          message strings. *)

type shared_sem = Event.tid -> Value.t list -> Log.t -> shared_result
(** Semantics of a shared primitive: given the caller, arguments and
    current global log (already extended with any environment events),
    produce the appended events, return value and critical-state change. *)

type private_sem =
  Event.tid -> Value.t list -> Abs.t -> (Abs.t * Value.t, string) result
(** Semantics of a private primitive over the caller's private abstract
    state. *)

type prim =
  | Shared of shared_sem
  | Private of private_sem

type t = {
  name : string;
  prims : (string * prim) list;  (** primitive collection [L.L] *)
  rely : Rely_guarantee.t;  (** [L.R] *)
  guar : Rely_guarantee.t;  (** [L.G] *)
  init_abs : Event.tid -> Abs.t;
      (** initial private abstract state of each thread *)
}

val make :
  ?rely:Rely_guarantee.t ->
  ?guar:Rely_guarantee.t ->
  ?init_abs:(Event.tid -> Abs.t) ->
  string ->
  (string * prim) list ->
  t
(** [make name prims] builds a layer interface; [rely]/[guar] default to
    the trivial invariant and [init_abs] to the empty state. *)

val find_prim : string -> t -> prim option
val prim_names : t -> string list
val has_prim : string -> t -> bool

val union : t -> t -> t
(** Primitive-collection union [L1.L ⊕ L2.L], used by the [Hcomp] rule; the
    rely/guarantee of the two operands must be {!Rely_guarantee.same},
    otherwise [Invalid_argument] is raised (the rule's side condition). *)

val restrict : string list -> t -> t
(** Keep only the named primitives (hide the rest), as when a higher layer
    stops exporting the raw ticket-lock primitives. *)

(** {1 Common primitive builders} *)

val shared_prim :
  string ->
  (Event.tid -> Value.t list -> Log.t -> shared_result) ->
  string * prim

val private_prim :
  string ->
  (Event.tid -> Value.t list -> Abs.t -> (Abs.t * Value.t, string) result) ->
  string * prim

val event_prim :
  string -> (Event.tid -> Value.t list -> Log.t -> (Value.t, string) result) -> string * prim
(** [event_prim name ret] is the common shape of an atomic shared
    primitive: append exactly the event [i.name(args)->v] where [v] is
    computed from the log by a replay function, and return [v]. *)

val pure_private : string -> (Value.t list -> Value.t) -> string * prim
(** A private primitive that only computes (no state change). *)
