(* Monotonic timing for the verifiers.  [Unix.gettimeofday] is wall-clock
   time: it jumps backwards and forwards under NTP adjustment, which makes
   the per-edge timings in {!Stack} and the pool's per-chunk accounting
   unreliable.  Bechamel ships a CLOCK_MONOTONIC stub with no further
   dependencies, so we use that. *)

(* The skew offset is the clock's fault-injection hook (DESIGN.md S27):
   it only grows, so skewed time is still monotonic — injected skew can
   move timings and deadlines, never a verdict. *)
let now_ns () = Int64.add (Monotonic_clock.now ()) (Fault.skew_ns ())

let ns_to_ms ns = Int64.to_float ns /. 1e6

let elapsed_ms ~since = ns_to_ms (Int64.sub (now_ns ()) since)

let timed f =
  let t0 = now_ns () in
  let r = f () in
  r, elapsed_ms ~since:t0

type timing = { median_ms : float; min_ms : float; max_ms : float; n : int }

let measure ~repeats f =
  let runs = List.init (max 1 repeats) (fun _ -> Gc.full_major (); timed f) in
  let ms = Array.of_list (List.sort Float.compare (List.map snd runs)) in
  let n = Array.length ms in
  ( fst (List.hd runs),
    { median_ms = ms.(n / 2); min_ms = ms.(0); max_ms = ms.(n - 1); n } )
