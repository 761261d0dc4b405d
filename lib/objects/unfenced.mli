(** Deliberately unfenced mutual-exclusion variants — the negative
    controls of the memory-mode test matrix.

    Each variant is a Dekker-style flag handshake guarding a push/pull
    location: correct (race-free) under sequential consistency, broken
    under x86-TSO, where both stores can sit in their buffers while both
    loads read 0 — so both threads pull the location and the push/pull
    replay reports a data race.  Both variants are store-buffering
    shaped by construction: store→load is the only reordering TSO
    exhibits, so an SB core is the only honest way to break an algorithm
    with it (classic message passing is TSO-correct).

    With [~fenced:true] an [mfence] sits between the flag store and the
    peer-flag load; the fenced variants are race-free under both memory
    modes, pinning that the fence (not luck) restores exclusion. *)

open Ccal_core

type variant =
  | Trylock  (** flag cells 11/12 *)
  | Handshake  (** req/ack mailbox cells 21/22 *)

val variant_name : variant -> string
val variants : variant list

val threads : ?fenced:bool -> variant -> (Event.tid * Prog.t) list
(** The two racing threads (tids 1 and 2). *)

val layer : Memory.t -> Layer.t
(** The bare hardware layer of the mode ({!Ccal_machine.Tso.machine_layer}). *)
