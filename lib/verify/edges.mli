(** The one edge loop and the one edge row (DESIGN.md S26/S27).

    {!Stack.verify_all_ctx}, the kv stack and {!Crash.check_ctx} are each
    a list of {!edge}s checked in order by {!run}: one budget poll between
    edges, one cache memo, one timed window, one partial-report rule.
    Every completed edge is a {!row}, and {!pp} prints any checker's rows
    from that checker's {!layout}. *)

open Ccal_core

type row = {
  name : string;
  label : string;  (** the kind label, e.g. a certificate's calculus rule *)
  counts : (string * int) list;
      (** the verdict's named counts; identical for every [jobs] count *)
  millis : float;  (** the body's wall time; a cache hit's lookup time *)
  counters : (string * int) list;
      (** telemetry counter growth over the body, [[]] with telemetry
          off and on a cache hit (which ran no body); identical for every
          [jobs] count *)
}

val count : row -> string -> int
(** The named count; raises [Not_found] when the row has none. *)

type edge = {
  name : string;  (** names the frontier when the budget runs out here *)
  key : (unit -> Fingerprint.t) option;
      (** the cache key, forced only when a cache is attached; [None]
          for an edge that always runs live *)
  setup : unit -> unit;
      (** run before [run], outside its timed window; not on a hit *)
  run : unit -> (string * (string * int) list, Failure.t) result;
      (** check the edge: its label and counts, or the failure of the
          run that broke it.  Raises {!Out_of_budget} when an inner
          checker ran out (see {!value}) *)
}

type column = { count : string; width : int; unit : string }

type layout = {
  title : string option;
      (** [Some t]: a first line ["t: N edges, T <total>"]; [None]: a
          last line ["  total: T <total>"] *)
  total : string;  (** the count summed into [total_checks] *)
  label_width : int option;  (** [Some w]: rows open with ["[label] "] *)
  name_width : int;
  after_name : string;
  columns : column list;  (** right-aligned counts, two spaces apart *)
  millis_width : int;
}
(** How one checker's rows print, as data. *)

type report = { edges : row list; total_checks : int; total_millis : float }

type progress = { completed : report; next_edge : string option }
(** The report over the edges that completed, in order, and — when the
    budget ran out — the name of the first edge that did not. *)

val pp : millis:bool -> layout -> Format.formatter -> row list -> unit
(** The report, each row's [counters] on a line under it; every line,
    the last included, ends in a newline.  Without
    [millis] it is the canonical text [--report] writes: bit-identical
    between cold and warm cached runs and across [jobs] counts. *)

exception Out_of_budget of Budget.spent

val value : 'a Budget.outcome -> 'a
(** The complete value, or raise {!Out_of_budget} with the checker's own
    [spent]. *)

val run :
  ctx:Ctx.t ->
  kind:string ->
  layout:layout ->
  edge list ->
  (progress, Failure.t) result Budget.outcome
(** Check the edges in order, stopping at the first failure or at the
    first edge the budget did not let finish.  [ctx.token] is polled
    before each edge.  An edge runs [setup], then [run] in a timed
    window with a telemetry-counter snapshot around it, for the row's
    [millis] and [counters].  A failing edge's {!Failure.t} gets the
    edge's name as its [f_edge] here, whatever its checker filled in.  With [ctx.cache], an edge with a key is
    served from the store under [kind] when present — with the lookup
    time as its [millis] and no [counters] — and its row stored, without
    counters, when it succeeds; failures and exhausted edges are never
    stored.  An [Exhausted] outcome reuses
    the [spent] of the edge that ran out (one exhausted run counts one
    [budget.exhaustions]); its [partial] lists completed edges only. *)
