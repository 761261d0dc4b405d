(** The functional map specification — the linearizability target of the
    kv serving stack (DESIGN.md S28).

    An atomic key-value map over integer keys and values, in the style of
    verified-betrfs' [MapSpec.s.dfy]: every operation is one shared event
    whose return value is computed by replaying the overlay log.  The
    sharded hash table ({!Hashtable}) and the block cache
    ({!Block_cache}) are both certified as contextual refinements of this
    layer; linearizability follows (Sec. 7 of the paper). *)

open Ccal_core

val get_tag : string
val put_tag : string
val del_tag : string
val resize_tag : string

val absent : int
(** Sentinel returned for a key that is not in the map ([-1]).  Workload
    values must be non-negative. *)

module Imap : Map.S with type key = int

val replay_map : int Imap.t Replay.t
(** Whole-map replay (chronological fold) — the reference oracle the
    tests compare the layer's [get] against. *)

val layer : ?shards:int -> unit -> Layer.t
(** The atomic map layer [Lmap]: [get k], [put k v] (returns the old
    value), [del k] (returns the old value), [resize n] (spec no-op on
    contents; returns the old shard count).  [shards] (default 4) is the
    initial shard count [resize]'s return replays from; it is baked into
    the layer name so fingerprints distinguish configurations. *)

val cache_overlay : unit -> Layer.t
(** [Lmap] restricted to [get]/[put] — the overlay the block-cache edges
    refine (the cache serves reads and writes; delete and resize stay
    hash-table-level operations). *)
