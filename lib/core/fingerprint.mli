(** Stable structural fingerprints for cache keys.

    The certificate cache (DESIGN "Certificate cache") keys each stored
    verdict by a fingerprint of everything the verdict depends on: the
    layer interfaces, the implementation programs, the scheduler suite,
    the engine configuration (seeds / DPOR depth / independence
    relation), and the fuel bounds.  Fingerprints are folded through the
    same multiply-xor avalanche round as {!Log.hash} ({!Log.mix}), so
    they diffuse identically to the log hashes stored alongside the
    verdicts.

    Fingerprints are {e stable}: they depend only on the structure of
    the values, never on addresses, ordering of hash tables, or wall
    clock — the same inputs fingerprint identically across processes,
    jobs counts, and runs.  They are {e versioned}: {!version} is mixed
    into the initial state, so bumping it invalidates every cached
    verdict at once (the cache's format-migration story).

    Closures cannot be hashed structurally.  The combinators below deal
    with each closure-bearing type explicitly: programs ({!prog}) are
    fingerprinted by probing their continuations with a small fixed set
    of deterministic values under a node budget; layers ({!layer}) by
    their name, primitive names and kinds, and rely/guarantee names;
    schedulers ({!scheds}) by their names — which is why every scheduler
    fed to a cached checker must carry a content-bearing name. *)

type t
(** A finished fingerprint. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_hex : t -> string
(** 16-digit lowercase hex rendering — the cache's filename component. *)

val pp : Format.formatter -> t -> unit

val version : int
(** Fingerprint format version.  Mixed into {!empty}; bump it whenever
    the meaning of any combinator changes, or the type of a cached value
    changes under an unchanged key, so stale cache entries become
    unreachable rather than wrong. *)

(** {1 Builder} *)

type state
(** Accumulator state: fold data in with the combinators, then
    {!finish}. *)

val empty : state
(** Initial state, seeded with {!version}. *)

val finish : state -> t
(** Final avalanche pass. *)

val int : state -> int -> state
val bool : state -> bool -> state
val string : state -> string -> state
val option : (state -> 'a -> state) -> state -> 'a option -> state
val list : (state -> 'a -> state) -> state -> 'a list -> state

(** {1 Domain values} *)

val value : state -> Value.t -> state
val event : state -> Event.t -> state

val log : state -> Log.t -> state
(** Mixes {!Log.hash} and the length. *)

val prog : ?budget:int -> state -> Prog.t -> state
(** Structural fingerprint of an interaction tree.  [Ret] mixes the
    value; [Call] mixes the primitive name and arguments, then probes
    the continuation with a fixed deterministic set of return values
    ([()], [0], [1], [true]) and recurses on each resulting subtree.  A
    shared node [budget] (default [2048]) bounds the traversal; when it
    runs out, or a probe raises (e.g. the continuation rejects a probe
    value's type), a distinct marker is mixed instead.  Deterministic as
    long as continuations are pure — which every program built from
    {!Prog.call}/{!Prog.bind} and every ClightX interpretation is. *)

val prog_blind : tid:int -> ?budget:int -> state -> Prog.t -> state
(** Like {!prog}, but every [Vint] equal to [tid] in the structure the
    program {e emits} (call arguments, return values) is replaced by a
    marker before mixing.  Sibling worker programs that differ only in
    their own thread id fingerprint identically — the symmetry-class
    test of the dpor engine's [sym] reduction (DESIGN.md S31).
    Probe values fed into continuations are not blinded. *)

val modul : ?budget:int -> state -> Prog.Module.t -> state
(** Fingerprint of a module: for each primitive name (in
    {!Prog.Module.names} order), probe the body builder with a fixed set
    of argument vectors and fingerprint the resulting programs.
    [budget] (default [512]) applies per probed body. *)

val layer : state -> Layer.t -> state
(** Name, primitive names and kinds (shared/private), and the
    rely/guarantee names.  Primitive {e semantics} are closures and are
    not probed: a layer's fingerprint is its interface identity, so two
    layers with the same name must export the same semantics (true
    throughout this codebase, where layers are built by named
    constructor functions). *)

val scheds : state -> Sched.t list -> state
(** Scheduler suite identity: the ordered list of scheduler names.
    Anonymous schedulers (the default ["trace"] name of
    {!Sched.of_trace}) make suites indistinguishable — give them
    content-bearing names (a [tag]) before fingerprinting. *)

val rel : state -> Sim_rel.t -> state
(** Simulation-relation identity: the relation name (relations are
    closures, like layer primitives — a relation's fingerprint is its
    name, so two relations with the same name must translate
    identically; true throughout this codebase, where relations are
    built by named constructors). *)

val memory : state -> Memory.t -> state
(** The memory mode.  Folded into every game-shaped key (DESIGN.md S29)
    so an SC verdict is never served for a TSO query and vice versa,
    even where the two modes' layer interfaces coincide. *)
