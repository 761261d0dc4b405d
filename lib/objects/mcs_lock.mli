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

val acq_fn : Ccal_clight.Csyntax.fn
val rel_fn : Ccal_clight.Csyntax.fn

val c_module : unit -> Prog.Module.t

val r_mcs : Sim_rel.t
(** Erase the cell traffic, rename [pull ↦ acq] / [push ↦ rel]. *)

val recipe : Object_intf.t
(** The ticket lock's recipe with [L0], [M_mcs], its assembly and
    [R_mcs] in place of the ticket lock's own:
    [Object_intf.certify recipe] builds [L0[A] ⊢_{R_mcs} M_mcs : Llock[A]]. *)
