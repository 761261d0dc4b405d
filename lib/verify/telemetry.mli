(** Verification telemetry (DESIGN.md S25).

    The facade the CLI, bench and tests use: the full instrumentation
    API of {!Ccal_core.Probe} (counters, spans, capture) re-exported,
    plus the two exporters behind the [--stats] and [--trace] flags.

    Typical session:
    {[
      Telemetry.enable ();
      ... run checkers ...
      Format.printf "%a" Telemetry.pp_stats ();
      Telemetry.write_chrome_trace "trace.json"
    ]}

    Counters are deterministic across [?jobs] counts (DESIGN.md S24
    extends to telemetry: the parallel executor captures per-job deltas
    and commits exactly the sequential prefix).  Spans carry wall-clock
    and vary run to run; they are for profiling, not for certificates. *)

include module type of Ccal_core.Probe
(** @inline *)

(** {1 Stats table} *)

type span_stat = {
  sname : string;
  calls : int;
  total_ms : float;
  max_ms : float;
  domains : int;  (** distinct domains that recorded this span *)
}

val pp_stats : Format.formatter -> unit -> unit
(** The human-readable table: non-zero counters, span aggregates, and
    the cumulative {!Parallel.stats} when any pool ran. *)

(** {1 Chrome trace export} *)

val write_chrome_trace : string -> unit
(** Write the recorded spans to a file as Trace Event Format JSON (one
    complete ["X"] event per span, microsecond timestamps relative to
    the earliest span, [tid] = recording domain, plus ["M"] metadata
    events naming each domain's track).  Loadable in [about:tracing] /
    Perfetto. *)
