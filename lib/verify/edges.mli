(** The one edge loop (DESIGN.md S26/S27).

    {!Stack.verify_all_ctx}, the kv stack and {!Crash.check_ctx} are each
    a list of {!edge}s checked in order by {!run}: one budget poll between
    edges, one cache memo, one partial-report rule. *)

open Ccal_core

type ('e, 'err) edge = {
  name : string;  (** names the frontier when the budget runs out here *)
  key : (unit -> Fingerprint.t) option;
      (** the edge's cache key, forced only when a cache is attached;
          [None] for an edge that always runs live *)
  run : unit -> ('e, 'err) result;
      (** check the edge; raises {!Out_of_budget} when an inner checker
          ran out (see {!value}) *)
}

type 'e progress = { completed : 'e list; next_edge : string option }
(** The edges that completed, in order, and — when the budget ran out —
    the name of the first edge that did not. *)

exception Out_of_budget of Budget.spent

val value : 'a Budget.outcome -> 'a
(** The complete value, or raise {!Out_of_budget} with the checker's own
    [spent]. *)

val run :
  ctx:Ctx.t ->
  kind:string ->
  with_millis:('e -> float -> 'e) ->
  ('e, 'err) edge list ->
  ('e progress, 'err) result Budget.outcome
(** Check the edges in order, stopping at the first failure or at the
    first edge the budget did not let finish.  [ctx.token] is polled
    before each edge.  With [ctx.cache], an edge with a key is served
    from the store under [kind] when present — [with_millis] sets the
    lookup time as its [millis] — and stored when it succeeds; failures
    and exhausted edges are never stored.  An [Exhausted] outcome reuses
    the [spent] of the edge that ran out (one exhausted run counts one
    [budget.exhaustions]); its [partial] lists completed edges only. *)
