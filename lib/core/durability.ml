(* The crash move of the async-disk machine (DESIGN.md S30).

   Crash safety is one more environment step: a layer whose machine can
   lose power exports a [crash_tag] primitive, and the game synthesises a
   crash pseudo-thread — the same mechanism as the TSO buffer flushers of
   S29 — whose single move fires that primitive at a scheduler-chosen
   point.  The primitive's two mask arguments pick, per in-flight write
   (oldest first), whether it reaches the platter intact ([keep] bit
   set, [tear] bit clear), reaches it torn ([keep] and [tear] both set),
   or is dropped (bit clear); unsynced writes the masks drop are gone
   and volatile state resets.  The crash-refinement certifier
   (lib/verify/crash.ml) enumerates the same masks analytically over
   log prefixes, so the in-game thread carries the adversarial default:
   drop everything.

   Pseudo-thread ids share one negative namespace: the crash thread owns
   [crash_tid = -1], the TSO flushers own [Memory.flusher_tid cpu =
   -cpu - 1] for cpus >= 1.  [Game.pseudo_threads] is the single
   synthesis point and rejects any collision, pinned by a unit test. *)

let crash_tag = "d_crash"

let crash_tid = -1

(* Mask arithmetic shared by the disk machine and the certifier: bit [i]
   of [keep] decides whether in-flight write [i] (oldest first) survives
   the crash; bit [i] of [tear] additionally garbles a surviving write. *)
let keeps ~mask i = mask land (1 lsl i) <> 0

let all_keep n = (1 lsl n) - 1

let crash_args ~keep ~tear = [ Value.int keep; Value.int tear ]
