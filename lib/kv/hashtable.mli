(** The sharded concurrent hash table (DESIGN.md S28).

    N buckets, each guarded by its own certified lock from the existing
    spinlock interface ({!Ccal_objects.Lock_intf.layer}), plus a meta
    lock holding the shard count — modeled on verified-betrfs'
    [hack-hash-table].  The locking discipline is lock-coupling in a
    fixed order (meta < bucket 1 < bucket 2 < …): an operation acquires
    the meta lock, reads the shard count, acquires its bucket, and only
    then releases meta, so a concurrent [resize] (which takes meta and
    every bucket) can never invalidate a bucket choice in flight.

    Each operation's linearization point is the release of its bucket
    lock: the released word carries, next to the bucket contents, a
    ghost descriptor of the operation (opcode, arguments, result) that
    the simulation relation {!r_kv} turns into the corresponding atomic
    {!Map_spec} event.  Per-bucket rely-guarantee obligations come for
    free from the lock layer's acquire/release condition. *)

open Ccal_core

type tags = { get : string; put : string; del : string; resize : string }

val spec_tags : tags
(** The {!Map_spec} names — what the standalone hash-table edge
    exports. *)

val backing_tags : tags
(** [disk_read]/[disk_write]/[disk_del]/[disk_resize] — the names the
    block cache's backing store calls, for stacking the cache on top of
    the table ({!Prog.Module.stack}). *)

val underlay : unit -> Layer.t
(** The lock layer the table is implemented over. *)

val module_ : ?tags:tags -> shards:int -> unit -> Prog.Module.t
(** Implementation module: [get]/[put]/[del]/[resize] bodies as programs
    over {!underlay}.  [shards] is the initial bucket count (must match
    the [Map_spec.layer] the edge refines). *)

val r_kv : Sim_rel.t
(** The simulation relation: a bucket-lock release carrying a ghost
    descriptor maps to the corresponding atomic map event; every other
    lock event is erased. *)

val bucket_contents : int -> Log.t -> (int * int) list
(** Replay a bucket's (key, value) association from the lock events —
    test oracle for directed tests. *)
