(** The push/pull shared-memory model (Sec. 3.1, Fig. 6 and Fig. 8).

    Each shared memory location is associated with an ownership status
    reconstructed from the log by the replay function [Rshared]: a [pull]
    moves a free location to "owned by [c]", after which CPU [c] may access
    its local copy; a [push] publishes the updated value and frees the
    ownership.  Pulling a non-free location, or pushing a location the
    caller does not own, is a data race: the replay function — hence the
    machine — gets stuck.  Showing a program never gets stuck is showing it
    is data-race free. *)

type ownership =
  | Free
  | Owned of Ccal_core.Event.tid

val pull_tag : string
val push_tag : string

val replay_loc :
  int -> (Ccal_core.Value.t * ownership) Ccal_core.Replay.t
(** [Rshared l b]: the current value and ownership of location [b]
    (Fig. 8); [Error] on a racy log. *)

val race_free : Ccal_core.Log.t -> bool
(** No replay of any location gets stuck. *)

val prims : (string * Ccal_core.Layer.prim) list
