(** The MCS queue lock (Mellor-Crummey & Scott), verified against the same
    atomic interface as the ticket lock.

    The paper verifies both the ticket and the MCS lock against the same
    high-level atomic specification, so "the lock implementations can be
    freely interchanged without affecting any proof in the higher-level
    modules using locks" (Sec. 6); Kim et al. [24] describe the MCS proof
    in detail.  Here the implementation uses the hardware layer's atomic
    cells: per lock [b], cell [b·1000] holds the queue tail, and cells
    [b·1000 + 100 + j] / [b·1000 + 200 + j] hold CPU [j]'s [locked] flag
    and [next] pointer.  CPU ids must be in [1 .. 99]; 0 is the nil
    pointer.  The protected data travels through the same push/pull
    location [b] as for the ticket lock. *)

open Ccal_core

val l0 : ?memory:Memory.t -> unit -> Layer.t
(** The bottom interface: the hardware layer of the memory mode ([Lx86]
    under [Sc], the buffered [Ltso] under [Tso]) with its atomic cells
    and push/pull primitives (no lock-specific primitives are needed —
    MCS works on raw cells).  Under [Tso] the rely/guarantee release
    bound doubles (96 → 192): buffering events inflate the event count
    the bound is measured in. *)

val overlay : ?bound:int -> unit -> Layer.t
(** The same [Llock] atomic interface as {!Ticket_lock.overlay}. *)

val acq_fn : Ccal_clight.Csyntax.fn
val rel_fn : Ccal_clight.Csyntax.fn

val c_module : unit -> Prog.Module.t
val asm_module : unit -> Prog.Module.t

val r_mcs : Sim_rel.t
(** Erase the cell traffic, rename [pull ↦ acq] / [push ↦ rel]. *)

val prim_tests : ?locks:int list -> ?values:int list -> unit -> Calculus.prim_tests

val env_suite : ?memory:Memory.t -> unit -> Calculus.env_suite
(** The silent context, then one and two rivals (threads 9 and 8, minus
    the focused one) on lock 0, each answering 1 or 2 rounds per query.
    Under [Tso] every context is wrapped with
    {!Ccal_machine.Tso.with_drain}: the environment commits pending
    stores at each query point.  For MCS this is load-bearing — the
    focused CPU's own buffered [locked := 1] store would otherwise be
    forwarded to its spin loop forever. *)

val certify :
  ?max_moves:int ->
  ?memory:Memory.t ->
  ?focus:Event.tid list ->
  ?use_asm:bool ->
  unit ->
  (Calculus.cert, Calculus.error) result
(** [L0[A] ⊢_{R_mcs} M_mcs : Llock[A]].  [?memory] certifies over the
    corresponding hardware machine; under [Tso] the relation composes
    {!Ccal_machine.Tso.drop_buffering} in front of [R_mcs]. *)
