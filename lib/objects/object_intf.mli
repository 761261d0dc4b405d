(** One certification recipe for every concurrent object (Fig. 9).

    The paper certifies every object with one rule, [Fun], checked
    against the silent environment and against environments of rival
    threads.  A {!t} states what differs from object to object — the
    layers, the modules, the relation, the argument vectors and who the
    rivals are — and {!certify} builds the one [Fun]-rule obligation over
    it.  New objects supply only their recipe, as each extension in
    verified-betrfs supplies only its state and transitions. *)

open Ccal_core

type t = {
  underlay : Memory.t -> Thread_sched.placement -> Layer.t;
      (** the layer the implementation runs on, over the memory mode's
          hardware and, above the scheduler, the thread placement
          (objects below it ignore the placement) *)
  overlay : Layer.t;  (** the atomic interface the object implements *)
  c_module : unit -> Prog.Module.t;  (** the implementation as C semantics *)
  asm_module : (unit -> Prog.Module.t) option;
      (** its compiled assembly, where the object has one *)
  rel : Sim_rel.t;  (** the simulation relation *)
  prim_tests : Calculus.prim_tests;
      (** the argument vectors of the [Fun]-rule obligations *)
  rival : unit -> Prog.t;
      (** what a rival thread runs over the underlay: an overlay client
          already linked with the object's own C module, so replacing
          [c_module] replaces the focused implementation only *)
  rivals : Event.tid list;  (** the rival threads, in order *)
  groups : int list;
      (** the sizes of the rival groups each round runs: [1] is
          [one-rival], [2] is [two-rivals]; a group larger than the
          rivals left after removing the focused thread shrinks to them *)
  siblings : bool;
      (** other threads placed on the focused thread's CPU yield forever in
          every context (the queuing lock's sleepers need them to be
          rescheduled) *)
  focus : Event.tid list;  (** the focused threads unless [certify] names others *)
}

val env_suite :
  t -> memory:Memory.t -> placement:Thread_sched.placement -> Calculus.env_suite
(** The environments {!certify} checks each focused thread against. *)

val certify :
  t ->
  ?memory:Memory.t ->
  ?placement:Thread_sched.placement ->
  ?focus:Event.tid list ->
  ?use_asm:bool ->
  unit ->
  (Calculus.cert, Failure.t) result
(** [underlay[A] ⊢_R M : overlay[A]] via the [Fun] rule, with the C
    semantics by default and the compiled assembly when [use_asm].  The
    placement defaults to {!Thread_sched.default_placement} of the focus
    and the rivals; an explicit one that leaves out a focused or rival
    thread raises [Invalid_argument] naming the thread.

    The environments of focused thread [i] are the silent context (or
    [siblings-only] when siblings share [i]'s CPU), then, for rounds 1
    and 2 per query, one context per rival group over the rivals other
    than [i], plus the siblings: [one-rival(rN)], [two-rivals(rN)].
    Under [Tso] every context is wrapped with
    {!Ccal_machine.Tso.with_drain} — the environment commits pending
    stores at each query point — and the relation is
    {!Ccal_machine.Tso.under_memory} of [rel]. *)
