(** Client programs and module implementations as interaction trees.

    A program over a layer interface is a tree of primitive calls: it either
    returns a value or calls a primitive of the layer and continues with the
    returned value.  This free-monad representation is the executable
    counterpart of the paper's "client program [P] built on top of [L]"
    (Sec. 2): the behaviour of the program is determined solely by the
    interface, independent of the layer implementation.

    A module implementation [M] maps the names of overlay primitives to
    bodies written as programs over the underlay; linking [P ⊕ M]
    substitutes bodies for calls. *)

type t =
  | Ret of Value.t  (** finished, with a result *)
  | Call of call  (** call a layer primitive and continue *)

and call = {
  prim : string;  (** primitive name in the current layer interface *)
  args : Value.t list;
  k : Value.t -> t;  (** continuation receiving the return value *)
}

val ret : Value.t -> t
val ret_unit : t

val call : string -> Value.t list -> t
(** [call p args] calls [p] and returns its result. *)

val bind : t -> (Value.t -> t) -> t
(** Monadic sequencing: run the first program, feed its result on.  Cost:
    a move pays one wrap for each [bind] enclosing it on the left, so a
    left-nested sequence makes a move pay for every program still to come. *)

val ( let* ) : t -> (Value.t -> t) -> t
val seq : t -> t -> t
(** [seq a b] runs [a], discards its result, then runs [b]. *)

val seq_all : t list -> t
(** Run programs in order, returning the last result ([ret_unit] if empty).
    Right-nested, each tail built when its head returns: a move costs the
    same whatever the length of the list. *)

(** {1 Modules and linking} *)

module Module : sig
  (** A program module [M]: implementations of overlay primitives as
      programs over the underlay interface. *)

  type prog := t

  type t

  val empty : t
  (** The paper's [∅]. *)

  val of_bodies : (string * (Value.t list -> prog)) list -> t

  val names : t -> string list
  val find : string -> t -> (Value.t list -> prog) option

  val union : t -> t -> t
  (** The paper's [M ⊕ N]; raises [Invalid_argument] if a primitive name is
      implemented by both (the union of modules must be disjoint). *)

  val stack : lower:t -> upper:t -> t
  (** Vertical linking: the upper module's bodies are written over the
      interface the lower module implements, so stacking resolves the
      upper bodies' calls through the lower module and unions the result —
      this is the [M ⊕ N] of the [Vcomp] rule, where [N may depend on M]
      (Sec. 3.3). *)

  val link : t -> prog -> prog
  (** [link m p] is [p ⊕ M]: each call in [p] to a primitive implemented by
      [m] is replaced by the corresponding body.  Bodies are programs over
      the {e underlay}, so their own calls are left untouched — layers are
      stratified, and stacking is expressed by nesting [link] (vertical
      composition, Sec. 3.3). *)
end

val steps_bound_exceeded : string
(** Reason string used by interpreters when fuel runs out. *)
