(** On-disk content-addressed certificate cache.

    Every edge verdict is a pure function of its inputs — layer
    interfaces, implementation, scheduler suite, engine configuration,
    fuel — so it can be memoized under a {!Ccal_core.Fingerprint} of
    those inputs (DESIGN "Certificate cache").  The edge is the one unit
    cached: {!Edges.run} is the only caller of {!find} and {!store}.
    The store is one file per verdict, named
    [<kind>-<fingerprint>.v<format>] in a cache directory; payloads are
    [Marshal]ed OCaml values behind a magic header.

    Policies, enforced here and in {!Edges.run}:
    {ul
    {- {e Failures are never cached.}  Only successful edges are
       stored, so a failing edge always re-runs live and reproduces
       its counterexample from the real game, never from disk.}
    {- {e Corruption is a miss.}  A truncated, bad-magic, or
       undeserializable entry is deleted and counted as an
       invalidation; the caller re-runs as if the entry never existed.}
    {- {e Writes are atomic.}  Entries are written to a temp file in
       the cache directory and [rename]d into place, so concurrent
       writers and crashes leave either the old entry or the new one,
       never a torn file.}
    {- {e [jobs] is never part of a key.}  Verdicts are bit-identical
       across jobs counts (DESIGN "Parallel checking"), so a cache
       populated under [-j 7] serves hits under [-j 1].}}

    Session counters are mirrored into the {!Ccal_core.Probe} counters
    [cache.hits] / [cache.misses] / [cache.invalidations], so
    [--stats]/[--trace] telemetry sees cache behaviour; the always-on
    copies in {!session_stats} feed [ccal cache stats] and the tests
    without requiring the telemetry switch. *)

open Ccal_core

type t
(** A handle on one cache directory, with session counters. *)

val create : ?dir:string -> unit -> t
(** Open (creating directories as needed) the store at [dir] (default:
    [$CCAL_CACHE_DIR] when set and non-empty; otherwise
    [$XDG_CACHE_HOME/ccal]; otherwise [$HOME/.cache/ccal]).  Raises
    [Sys_error] if the directory cannot be created or is not writable. *)

val dir : t -> string

val find : t -> kind:string -> Fingerprint.t -> 'a option
(** Look up the entry of that kind and key.  [kind] is a short static
    tag naming the payload type — "edge" (the Fig. 1 stack), "kvedge"
    (the kv stack) or "crash" (the crash certifier), the three kinds
    {!Edges.run} stores — and part of the filename, so a fingerprint
    collision across payload types cannot type-confuse [Marshal].
    Absent entries count a miss; present entries count a hit; corrupt
    entries are deleted, count an invalidation {e and} a miss, and
    return [None]. *)

val store : t -> kind:string -> Fingerprint.t -> 'a -> unit
(** Write the entry atomically (temp file + rename).  Best-effort: an
    unwritable directory drops the write silently — the cache never
    turns a passing verification into a failure. *)

type session = { hits : int; misses : int; invalidations : int; stores : int }

val session_stats : t -> session
(** Counters accumulated through this handle (always on, unlike the
    mirrored [Probe] counters which record only under telemetry). *)

type disk = { entries : int; bytes : int }

val disk_stats : t -> disk
(** Entry count and total size on disk (all format versions). *)

val clear : t -> int
(** Delete all cache entries; returns how many were removed. *)
