(** Atomic cells — the x86 atomic instructions of the bottom layer.

    The primitives of the lowest interface [Lx86] are "implemented using
    x86 atomic instructions" (Sec. 2).  We model the hardware's atomic
    read-modify-write operations on integer cells; each operation appends
    one event, and the cell's current value is reconstructed from the log
    by the replay function {!replay_cell} — shared state is never stored
    (Sec. 2, "replay functions"). *)

(** Event tags: fetch-and-add (the ticket lock's [FAI]), atomic exchange
    (used by the MCS lock), compare-and-swap, atomic load/store. *)

val faa_tag : string

val xchg_tag : string
val cas_tag : string
val aload_tag : string
val astore_tag : string

val mfence_tag : string
(** Memory fence.  A no-op marker event on the SC machine; {!Tso} gives
    the same tag its store-buffer-draining semantics, so fenced programs
    run unchanged under both memory modes. *)

val commit_tag : string
(** [commit(b, v, cpu)]: a store buffered by [cpu] reaches cell [b].
    Only the {!Tso} machine emits it; the cells count it as a store. *)

val replay_cell : int -> int Ccal_core.Replay.t
(** Current value of atomic cell [b] (cells start at 0), replayed from
    the RMW operations, atomic stores and commits of the log. *)

(** The primitives, by name:
    - [faa(b, d)]: atomically add [d] to cell [b]; returns the old value;
    - [xchg(b, v)]: atomically set cell [b] to [v]; returns the old value;
    - [cas(b, expected, new)]: if cell [b] equals [expected], set it to
      [new]; returns the old value either way (callers compare against
      [expected] to detect success);
    - [aload(b)]: atomic read;
    - [astore(b, v)]: atomic write; returns unit;
    - [mfence()]: appends an [mfence] event; no state change under SC. *)
val prims : (string * Ccal_core.Layer.prim) list
