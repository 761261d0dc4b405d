(** The extended algebraic memory model of thread-safe CompCertX
    (Sec. 5.5, Fig. 12).

    Each thread's stack frames live in its private memory; when threads on
    one CPU are composed, their private memories must combine into a single
    coherent CompCert-style memory.  The trick is {e empty placeholder
    blocks}: a scheduling primitive also allocates permission-less blocks
    standing for the stack frames other threads allocate while the thread
    is descheduled ([liftnb]), so block numbers stay aligned.

    [m1 ⊛ m2 ≃ m] is the ternary composition relation; Fig. 12's axioms
    ([Nb], [Comm], [Ld], [St], [Alloc], [Lift-R], [Lift-L]) are theorems of
    this implementation, checked by the property-based test-suite. *)

type block
type t
(** A memory: a sequence of blocks, some of which may be empty
    placeholders (no permissions). *)

type loc = { block : int; off : int }

val empty : t
val nb : t -> int
(** [nb(m)]: total number of blocks. *)

val alloc : t -> int -> int -> t * int
(** [alloc m lo hi]: append a fresh real block with bounds [[lo,hi)];
    returns the new memory and the block's index. *)

val liftnb : t -> int -> t
(** [liftnb(m,n)]: extend [m] with [n] empty placeholder blocks. *)

val ld : t -> loc -> Ccal_core.Value.t option
(** [ld(m,ℓ)]: load; [None] if the block is absent/empty/out of bounds
    (no permission). *)

val st : t -> loc -> Ccal_core.Value.t -> t option
(** [st(m,ℓ,v)]: store; [None] without permission. *)

val compose : t -> t -> t option
(** [compose m1 m2]: the canonical [m] with [m1 ⊛ m2 ≃ m], if the two
    memories are compatible (no index holds a real block in both). *)

val related : t -> t -> t -> bool
(** [related m1 m2 m]: does [m1 ⊛ m2 ≃ m] hold? *)

val equal : t -> t -> bool
