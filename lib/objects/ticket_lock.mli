(** The ticket lock — the paper's running example (Sec. 2, Fig. 10,
    Sec. 4.1).

    The lock keeps two "now serving"/"next ticket" counters whose state is
    replayed from the log by [Rticket] (counting [FAI_t] and [inc_n]
    events, Sec. 4.1).  The bottom interface [L0] extends the hardware
    layer [Lx86] with the three ticket primitives, implemented by x86
    atomic instructions; the C module [M1] (Fig. 10) implements [acq]/[rel]
    over it, with the lock-protected data accessed through the push/pull
    memory model: a successful acquire pulls the protected location, the
    release pushes it back.

    The module exports the full verification pipeline of Fig. 5:
    the C code, its compiled assembly, the simulation relation [R_ticket]
    erasing ticket traffic and renaming [pull]/[push] to [acq]/[rel], the
    {!recipe} the certified-layer builder {!Object_intf.certify} takes, and
    the low-level specification strategies [φ'_acq]/[φ'_rel] of Sec. 2. *)

open Ccal_core

type ticket_state = {
  next : int;  (** next ticket to hand out, [t] *)
  serving : int;  (** "now serving", [n] *)
}

val replay_ticket : int -> ticket_state Replay.t
(** [Rticket] for lock [b].  Counter values wrap at 2^32 as the [uint]
    fields of the C implementation do; mutual exclusion is unaffected as
    long as there are fewer than 2^32 CPUs (Sec. 4.1). *)

val l0 : ?memory:Memory.t -> unit -> Layer.t
(** [L0]: the hardware layer of the memory mode ([Lx86] under [Sc], the
    buffered [Ltso] under [Tso]) extended with [FAI_t]/[get_n]/[inc_n].
    The implementation issues no plain stores, so under TSO its buffers
    stay empty and the certificate carries over unchanged. *)

val acq_fn : Ccal_clight.Csyntax.fn
(** Fig. 10's [acq]: fetch a ticket, spin on [get_n], pull the protected
    location; returns the protected value. *)

val rel_fn : Ccal_clight.Csyntax.fn
(** Fig. 10's [rel(b,v)]: push the protected value back, then [inc_n]. *)

val c_module : unit -> Prog.Module.t
(** [M1] as C semantics. *)

val r_ticket : Sim_rel.t
(** Erase [FAI_t]/[get_n]/[inc_n], rename [pull ↦ acq] and [push ↦ rel]. *)

val phi_acq_low : Event.tid -> int -> Strategy.t
(** The automaton [φ'_acq[i]] of Sec. 2: [!i.FAI_t ↓t], then a [get_n]
    self-loop while the ticket is not served, then the pull. *)

val phi_rel_low : Event.tid -> int -> Value.t -> Strategy.t
(** [φ'_rel[i]]: push the value, then [inc_n]. *)

val recipe : Object_intf.t
(** [L0], [M1], [CompCertX(M1)] and [R_ticket], with rival threads 9 and
    8 running lock rounds, alone and together:
    [Object_intf.certify recipe] builds [L0[A] ⊢_{R_ticket} M1 : Llock[A]]. *)
