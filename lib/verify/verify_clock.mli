(** Monotonic timing for the verifiers.

    All verifier-side timing (the per-edge milliseconds of
    {!Stack.verify_all}, the pool's per-chunk accounting in {!Parallel},
    the scaling benchmarks) goes through this module rather than
    [Unix.gettimeofday], which is wall-clock time and jumps under NTP
    adjustment.  Backed by a CLOCK_MONOTONIC C stub
    ([bechamel.monotonic_clock]); timings are only meaningful as
    differences. *)

val now_ns : unit -> int64
(** Nanoseconds on the monotonic clock (arbitrary epoch).  Under an
    armed {!Fault} plan this includes the injected skew offset, which
    only grows — readings stay monotonic. *)

val ns_to_ms : int64 -> float

val elapsed_ms : since:int64 -> float
(** Milliseconds elapsed since a {!now_ns} reading. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f] and returns its result with the elapsed
    milliseconds. *)

type timing = { median_ms : float; min_ms : float; max_ms : float; n : int }

val measure : repeats:int -> (unit -> 'a) -> 'a * timing
(** [measure ~repeats f] runs [f] [max 1 repeats] times, each after a full
    major collection, and returns the first run's result with the median,
    fastest and slowest of the [n] timings, in milliseconds. *)
