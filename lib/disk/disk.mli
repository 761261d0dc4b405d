(** The async-disk machine layer (DESIGN.md S30).

    A page store with asynchronous durability: writes queue into an
    in-flight set, reads see the volatile view, [d_sync] group-commits
    the whole set, and the crash primitive ({!Ccal_core.Durability.crash_tag})
    commits/tears/drops in-flight writes per its masks and halts the
    machine — further disk calls of real threads block forever.  The
    state is reconstructed from the log by {!replay} on every call, like
    every object in the repo. *)

open Ccal_core

val write_tag : string
val sync_tag : string

type state = private {
  durable : Value.t Map.Make(Int).t;  (** the platter *)
  inflight : (int * Value.t) list;  (** queued writes, oldest first *)
  crashed : bool;
}

val durable_page : state -> int -> Value.t option
val inflight : state -> (int * Value.t) list

val crash_commit : keep:int -> tear:int -> state -> state
(** The crash transition: bit [i] of [keep] commits in-flight write [i]
    (oldest first; when bit [i] of [tear] is also set, as recognisable
    garbage that any checksummed decoder rejects), clear bits drop.
    Shared by the in-game crash primitive and the certifier's analytic
    enumeration. *)

val of_durable : (int * Value.t) list -> state
(** A fresh (non-crashed, nothing in flight) state over the given
    platter. *)

val replay_log : Log.t -> (state, string) result

val changes_disk : Event.t -> bool
(** Is this event a write or sync — i.e. a crash point boundary? *)

val prims : ?crashes:bool -> unit -> (string * Layer.prim) list
(** The disk primitives, for mixing into a lock underlay via
    [Lock_intf.layer ~extra].  [crashes] (default false) additionally
    exports the crash primitive, making any game over the layer
    crashable via the synthesized pseudo-thread
    ({!Ccal_core.Game.pseudo_threads}); the certifier instead keeps its
    underlay crash-free and enumerates crashes analytically. *)

val layer : ?crashes:bool -> unit -> Layer.t
(** A standalone disk layer (unit tests, litmus-style exploration). *)
