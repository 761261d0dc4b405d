(** Thread-private abstract state.

    The abstract state [a] of a layer machine (Fig. 7) summarizes in-memory
    data structures from lower layers; it is not a ghost state because
    private primitives read and update it.  We represent it as a finite
    record of named {!Value.t} fields (the paper's Coq records such as
    [a.tdqp], [a.tcbp], [a.status]). *)

type t

val empty : t

val get : string -> t -> Value.t
(** [get k a] reads field [k]; unset fields read as [Value.unit]. *)

val set : string -> Value.t -> t -> t
(** [set k v a] is the paper's record update [a{k : v}]. *)

val fields : t -> (string * Value.t) list
(** Bindings, sorted by field name. *)

val equal : t -> t -> bool
