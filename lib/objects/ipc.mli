(** Synchronous inter-process communication: a bounded channel.

    The CertiKOS kernel built with CCAL provides "a synchronous
    inter-process communication protocol using the queuing lock" (Sec. 6).
    Our channel is a bounded buffer protected by a spinlock, with two
    condition-variable channels ([not-full] / [not-empty]) for blocking
    senders and receivers — the full scheduler/condvar stack in action.

    The atomic overlay [Lipc] has one event per operation: [send(ch, v)]
    blocks while the buffer is full, [recv(ch)] blocks while it is empty
    and returns the oldest message.  The simulation relation merges each
    successful spinlock section into its atomic event — the same
    list-difference trick as the shared queue — and erases the sleeping
    retries entirely. *)

open Ccal_core

val underlay : placement:Thread_sched.placement -> unit -> Layer.t
(** [mt_layer] over the spinlock interface extended with the silent list
    helpers. *)

val overlay : unit -> Layer.t
(** [Lipc]: atomic [send]/[recv] plus the no-op [yield]/[texit]. *)

val replay_chan : int -> Value.t list Replay.t
(** Buffer contents of channel [ch] from overlay events. *)

val send_fn : Ccal_clight.Csyntax.fn
val recv_fn : Ccal_clight.Csyntax.fn

val c_module : unit -> Prog.Module.t
(** The channel implementation linked over the condvar helpers. *)

val r_ipc : Sim_rel.t

val recipe : Object_intf.t
(** [Lmt(Lipc_under)[A] ⊢_{R_ipc} M_ipc : Lipc[A]]: channel 5, with rival
    thread 9 sending and receiving on it. *)
