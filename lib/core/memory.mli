(** The machine memory mode (DESIGN.md S29).

    [Sc]: sequentially consistent — every shared store reaches memory in
    the move that issues it (the paper's machine model).  [Tso]: x86-TSO
    — plain stores enter a per-CPU FIFO store buffer and reach memory
    when the buffer drains (fence, read-modify-write, synchronisation
    primitive, or an explicit buffer-flush scheduler move).

    Buffer flushes are scheduler moves: each CPU gets a "flusher"
    pseudo-thread (negative thread id) whose infinite program repeatedly
    calls {!flush_tag} for that CPU.  {!Game} synthesises the flushers
    whenever a TSO game runs over a layer providing the flush
    primitive. *)

type t = Sc | Tso

val default : t
(** [Sc]. *)

val equal : t -> t -> bool
val to_string : t -> string

val flush_tag : string
(** The buffer-flush primitive: [flush cpu] commits the oldest pending
    store of [cpu]'s buffer, or blocks when that buffer is empty.  Its
    presence in a layer marks the layer as buffered. *)

val flusher_tid : Event.tid -> Event.tid
(** The pseudo-thread id of CPU [c]'s flusher: [-c - 1] — negative, so
    disjoint from every real thread id. *)

val is_flusher : Event.tid -> bool
