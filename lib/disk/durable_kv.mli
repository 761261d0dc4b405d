(** The durable KV edge (DESIGN.md S30): the S28 sharded hash table
    retargeted onto the WAL, so every mutation is logged before it is
    applied and [dsync] is the durability point. *)

open Ccal_core
open Ccal_verify

val get_tag : string
val put_tag : string

val module_ : ?shards:int -> ?unsynced:bool -> unit -> Prog.Module.t
(** [dget]/[dput]/[ddel]/[dsync] stacked over the WAL module unioned
    with the hashtable under private in-memory tags. *)

val underlay : ?crashes:bool -> unit -> Layer.t
(** = {!Wal.underlay} ([Llock+disk]). *)

val client : int -> Prog.t

val crash_edge :
  ?threads:int -> ?shards:int -> ?unsynced:bool -> unit -> Crash.edge
(** The durable-kv crash-refinement edge (default 2 threads, 2 shards). *)
