(** The block cache (DESIGN.md S28): a fixed-capacity, direct-mapped page
    cache in front of a modeled backing store, certified as a layer
    refining the plain map ({!Map_spec.cache_overlay}).

    Each cache entry carries the rich per-entry lock state machine of the
    scache RWLock (SNIPPETS.md snippet 3): [Unmapped] / [Reading] /
    [Available] / [Writeback] / [Exc] flags, a pending-exclusive mark
    ([PendingExcLock] — a waiting writer blocks new readers), a dirty
    bit, and per-thread reader refcounts.  The state is never stored: it
    is replayed from the entry's events ({!replay_entry}), in the CCAL
    discipline.

    Linearization points are ghost-carrying events: [c_end_read] returns
    the cached value (the atomic [get]), [c_update] returns the
    overwritten value (the atomic [put]); the simulation relation
    {!r_cache} keeps exactly those and erases the rest.  The backing
    store is reached through the [disk_read]/[disk_write] primitives —
    modeled flat storage in the standalone edge ({!underlay}), or the
    sharded hash table when the two layers are stacked
    ({!Kv_stack}). *)

open Ccal_core

(** {1 Entry state replay} *)

type flag = Unmapped | Reading | Available | Writeback | Exc

type entry = {
  flag : flag;
  page : int;  (** key currently mapped; [-1] when none *)
  value : int;  (** cached value for [page] *)
  dirty : bool;
  pending : int;  (** tid of the waiting exclusive locker; [-1] when none *)
  owner : int;  (** [Reading]/[Writeback]/[Exc] owner tid; [-1] when none *)
  readers : (int * int) list;  (** per-thread reader refcounts *)
}

val replay_entry : int -> Log.t -> (entry, string) result
(** Replay one entry's state machine from its events (chronological,
    first-error-wins): a key of one {!Replay.family} over every entry,
    in which each entry keeps its own first error. *)

(** {1 Layer plumbing} *)

val entry_prims : unit -> (string * Layer.prim) list
(** The per-entry cache primitives ([c_open], [c_fill], [c_fill_exc],
    [c_end_read], [c_exc], [c_exc_wait], [c_update], [c_wb_done]) —
    capacity-independent; the entry id is an argument.  Exposed
    separately so {!Kv_stack} can graft them onto the lock layer for the
    composed edge. *)

val underlay : unit -> Layer.t
(** Standalone-cache underlay: the entry primitives plus the modeled
    flat backing store ([disk_read]/[disk_write]). *)

val module_ : ?tags:Hashtable.tags -> entries:int -> unit -> Prog.Module.t
(** Implementation of [get]/[put] over {!underlay} with [entries]
    direct-mapped cache entries (entry of key [k] is [k mod entries]).
    [tags] names the exported primitives (default {!Hashtable.spec_tags};
    only [get]/[put] are implemented — delete and resize are
    table-level operations). *)

val r_cache : Sim_rel.t
(** [c_end_read] ↦ atomic [get], [c_update] ↦ atomic [put]; everything
    else erases. *)
