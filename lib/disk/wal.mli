(** The write-ahead log object over the async disk (DESIGN.md S30).

    Checksummed records at page = LSN (1-based, contiguous), one lock
    serialising the log head (its published word carries the next LSN
    and the ghost linearization descriptor), group commit on [w_sync],
    and a recovery scan that truncates at the first torn, invalid or
    out-of-sequence record. *)

open Ccal_core
open Ccal_verify

val append_tag : string
val sync_tag : string

type op = Crash.op = { lsn : int; key : int; value : int }

val record : op -> Value.t
(** The checksummed page of a record, [[lsn; key; value; checksum]]. *)

val module_ : ?unsynced:bool -> unit -> Prog.Module.t
(** [w_append]/[w_sync] as programs over [Llock+disk].  [unsynced]
    (default false) is the deliberately broken no-WAL variant: [w_sync]
    skips the [d_sync] but still acknowledges — the bug the crash
    certificate catches. *)

val underlay : ?crashes:bool -> unit -> Layer.t
(** The lock layer with the disk primitives mixed in ([Llock+disk]);
    [crashes] additionally exports the crash primitive for in-game
    crash exploration. *)

val recover : Disk.state -> op list
(** Scan the platter from page 1, truncating at the first torn,
    checksum-invalid, malformed or out-of-sequence record.  Volatile state
    is never consulted. *)

val client : int -> Prog.t
(** The crash-game workload of thread [i]: append, sync, append on
    per-thread keys. *)

val crash_edge : ?threads:int -> ?unsynced:bool -> unit -> Crash.edge
(** The WAL crash-refinement edge over [threads] clients (default 2). *)
