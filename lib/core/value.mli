(** First-order runtime values exchanged between client programs, layer
    primitives and events.

    The CCAL machines of the paper (Fig. 7) pass machine integers and
    locations between primitives; we additionally provide booleans, pairs
    and lists so that abstract states (e.g. the logical thread queues of
    Sec. 4.2) can be represented directly. *)

type t =
  | Vunit
  | Vint of int  (** machine integer / location / thread id *)
  | Vbool of bool
  | Vpair of t * t
  | Vlist of t list

val unit : t
val int : int -> t
val bool : bool -> t
val pair : t -> t -> t
val list : t list -> t

val equal : t -> t -> bool
val compare : t -> t -> int

val to_int : t -> int
(** [to_int v] projects an integer, raising [Type_error] otherwise. *)

val to_list : t -> t list

exception Type_error of string
(** Raised by the projections when a primitive receives an argument of the
    wrong shape; in the paper's semantics this corresponds to the machine
    getting stuck. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
