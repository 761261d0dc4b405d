(** Environment contexts.

    When a layer machine focuses on a thread set [A], the behaviour of all
    other participants (remaining threads plus the scheduler) is an
    {e environment context} [E] (Sec. 2).  At each query point the machine
    asks [E] for the events appended by the environment since the previous
    query; the paper writes [E[A, l]] for this extension of [l] (Sec. 3.2).

    An environment context is {e valid} for a layer interface when every
    event it returns comes from outside the focused set and the extended
    log satisfies the layer's rely condition. *)

type t = {
  name : string;
  query : focus:Event.tid list -> Log.t -> Event.t list;
      (** [query ~focus l] returns the (chronologically ordered) events
          appended by the environment before control returns to [focus]. *)
}

val empty : t
(** The silent environment (no other participants): always returns []. *)

val make : string -> (focus:Event.tid list -> Log.t -> Event.t list) -> t

val of_script : string -> Event.t list list -> t
(** [of_script name chunks] answers the [n]-th query with the [n]-th chunk
    (and [] afterwards).  Queries are counted per context value, so each
    script is single-use per run; build a fresh one per execution. *)

val of_strategies : string -> (Event.tid * Strategy.t) list -> rounds:int -> t
(** [of_strategies name parts ~rounds] is the union of the strategies of
    the environment participants, driven round-robin: each query lets every
    unfinished participant make at most [rounds] moves.  This realizes the
    paper's "union of the strategies by the scheduler plus those
    participants not in A". *)

val checked :
  rely:Rely_guarantee.t -> t -> t
(** [checked ~rely e] wraps [e] so that any answer holding an event of the
    focused set, or extending the log to one violating [rely] (for the
    event's source), raises [Invalid_env]; this is
    how experiments restrict attention to valid environment contexts. *)

exception Invalid_env of string
