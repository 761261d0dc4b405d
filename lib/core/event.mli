(** Observable events.

    Every call to a shared primitive is recorded as an observable event
    appended to the global log (Sec. 2).  An event carries the id of the
    thread/CPU that produced it (its source), the primitive's tag, the call
    arguments, and the value the call returned — e.g. the event written
    [i.FAI_t] in the paper is [{src = i; tag = "FAI_t"; args = [b]; ret = t}].

    Hardware scheduling transitions are also recorded as events (Sec. 3.1);
    they use the distinguished tag ["switch"], built by {!switch}. *)

type tid = int
(** Thread / CPU identifier.  The full domain [D] of the paper is a finite
    set of such ids. *)

type t = {
  src : tid;  (** producing thread / CPU *)
  tag : string;  (** primitive name, e.g. ["FAI_t"], ["acq"], ["pull"] *)
  args : Value.t list;  (** call arguments recorded with the event *)
  ret : Value.t;  (** return value recorded with the event *)
}

val make : ?args:Value.t list -> ?ret:Value.t -> tid -> string -> t
(** [make i tag] builds the event [i.tag]; [args] and [ret] default to
    empty / unit. *)

val obj_of_args : Value.t list -> int option
(** The object an event acts on: its first argument when that is an
    integer (the lock, queue or channel id, or the memory cell).  The
    one convention shared by the objects' replay functions, the
    rely/guarantee checks, the progress checks and DPOR's dependence
    relation. *)

val switch : tid -> t
(** [switch i] is the scheduling event recording that control was
    transferred to [i]. *)

val is_switch : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Structural hash, compatible with {!equal} — used by the hashed
    distinct-log counting of the verification harness. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
