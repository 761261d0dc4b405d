(** The crash move of the async-disk machine (DESIGN.md S30).

    A crash-enabled layer exports {!crash_tag}; the game synthesises a
    crash pseudo-thread (id {!crash_tid}, the same negative-tid
    machinery as the TSO flushers) whose single move fires it at a
    scheduler-chosen point, non-deterministically dropping or tearing
    any subset of the disk's unsynced in-flight writes. *)

val crash_tag : string
(** Name of the crash primitive ([d_crash keep tear]).  Its presence in
    a layer is how {!Game.pseudo_threads} recognises the machine as
    crashable. *)

val crash_tid : Event.tid
(** Thread id of the crash pseudo-thread: [-1], disjoint from every real
    thread (ids >= 1) and every flusher ({!Memory.flusher_tid} of a cpu
    >= 1). *)

val keeps : mask:int -> int -> bool
(** [keeps ~mask i]: does bit [i] of the mask select in-flight write [i]
    (oldest first)? *)

val all_keep : int -> int
(** The keep-everything mask over [n] in-flight writes. *)

val crash_args : keep:int -> tear:int -> Value.t list
(** The argument list of a [crash_tag] call. *)
