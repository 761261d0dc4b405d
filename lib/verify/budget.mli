(** Resource budgets.

    A {!t} bounds a verification run along up to two dimensions —
    wall-clock milliseconds and game steps.  {!start} turns the spec into
    a runtime {!token} (deadline epoch = the call); [Parallel.games]
    polls the token between games and inside them, and the checkers
    return {!Exhausted} with a resumable partial result instead of
    hanging.

    Only step budgets are deterministic: the game scan gives each
    schedule a private allowance captured at scan entry and re-truncates
    the merged prefix sequentially, so the counted schedule set is
    jobs-independent (DESIGN.md S27).  A deadline is a wall-clock event;
    it shrinks the prefix but never changes a completed verdict. *)

type t = {
  ms : float option;  (** wall-clock deadline, ms from {!start} *)
  steps : int option;  (** total game-move budget *)
}

val make : ?ms:float -> ?steps:int -> unit -> t
(** Negative values are clamped to zero (instantly exhausted). *)

(** {1 Outcomes} *)

type spent = {
  elapsed_ms : float;
  steps_used : int;
  reason : [ `Deadline | `Steps ];
}

val pp_spent : Format.formatter -> spent -> unit

(** The result shape shared by the checkers under a budget: either the full
    verdict, or what was established before the budget ran out. *)
type 'a outcome = Complete of 'a | Exhausted of { spent : spent; partial : 'a }

val value : 'a outcome -> 'a
val map : ('a -> 'b) -> 'a outcome -> 'b outcome

(** {1 Tokens} *)

type token

val start : t -> token
(** Start the clock: the deadline epoch is this call. *)

val no_token : token
(** A shared unlimited token — the default on [Ctx.default]; polling it
    is two atomic reads and it never trips. *)

val poll : token -> bool
(** True once any budget dimension is exhausted.  Cheap enough for
    schedule granularity. *)

val poll_wall : token -> bool
(** Like {!poll} but ignoring the shared step counter: the deadline
    only.  Used inside games, where shared-step exhaustion would be
    jobs-dependent. *)

val charge : token -> int -> unit
(** Add [n] game steps to the shared counter (heuristic early-stop;
    the deterministic accounting happens via {!settle}). *)

val steps_used : token -> int

val steps_remaining : token -> int
(** Remaining step allowance ([max_int] when unbounded) — captured once
    at scan entry to derive each schedule's private allowance. *)

val settle : token -> int -> unit
(** Overwrite the shared step counter with the deterministic total
    computed by the game scan's merge pass, so {!spent} and the next
    scan's entry allowance are jobs-identical. *)

val note_ran_out : token -> unit
(** Called by the game scan when it truncates its prefix: records
    [`Steps] as the trip reason unless a wall-clock dimension already
    tripped (the deterministic truncation never polls the token, so the
    reason would otherwise be lost).  First trip wins. *)

val spent : token -> spent
(** Snapshot for an [Exhausted] report; bumps the [budget.exhaustions]
    probe counter. *)

val game_stop : token -> allowance:int -> (unit -> bool) option
(** Stop closure for [Game.config ?stop]: trips when the game exceeds
    its private step [allowance], and polls the shared token every 256
    moves.  [None] when both are unlimited. *)
