(* The machine memory mode (DESIGN.md S29).

   [Sc] is the paper's machine: every shared store reaches memory in the
   move that issues it.  [Tso] is the x86-TSO extension the paper's
   Limitations section calls promising: plain stores enter a per-CPU
   FIFO store buffer and reach memory only when the buffer drains — at a
   fence, at a read-modify-write, at a synchronisation primitive, or
   through an explicit buffer-flush scheduler move.

   The flush move is modelled as a pseudo-thread per CPU (a "flusher"):
   an infinite program repeatedly calling the [flush_tag] primitive for
   its CPU.  Flusher thread ids are negative, disjoint from every real
   thread id, so schedulers, DPOR prefixes and logs can name them
   without colliding with the domain. *)

type t = Sc | Tso

let default = Sc
let equal a b = a = b

let to_string = function Sc -> "sc" | Tso -> "tso"

(* The buffer-flush primitive: [flush cpu] commits the oldest pending
   store of [cpu]'s buffer, or blocks when the buffer is empty.  Only
   TSO layers provide it; its presence is how the game recognises a
   layer as buffered. *)
let flush_tag = "flush"

let flusher_tid cpu = -cpu - 1
let is_flusher i = i < 0
