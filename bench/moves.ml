(* Minor words per move of three fixed games (DESIGN.md S35): what a play
   move costs beyond its events.  Allocation is deterministic for a given
   build, so the figures are exact counts, not samples; the perf-gate test
   bounds each, and [main.exe --only moves] records them in
   BENCH_moves.json.  Shared by the bench and the test suite (test/dune
   copies this file). *)
open Ccal_core
module V = Ccal_verify

(* Minor words allocated by [f], per move it reports.  One unmeasured run
   first, so per-domain scratch buffers already exist. *)
let words_per_move f =
  ignore (f ());
  let before = Gc.minor_words () in
  let moves = f () in
  let words = Gc.minor_words () -. before in
  moves, words /. float_of_int moves

(* A one-primitive layer whose only primitive appends one event and reads
   nothing: four threads calling it 250 times each, round robin. *)
let nop () =
  let layer =
    Layer.make "Lnop" [ Layer.event_prim "nop" (fun _ _ _ -> Ok Value.unit) ]
  in
  let rec calls k =
    if k = 0 then Prog.ret_unit else Prog.seq (Prog.call "nop" []) (calls (k - 1))
  in
  let threads = List.init 4 (fun k -> k + 1, calls 250) in
  words_per_move (fun () ->
      (Game.run (Game.config layer threads Sched.round_robin)).Game.steps)

(* The leaves of the dpor-ticket4 workload: the ticket lock's C module
   over L0, four lock clients, the depth-6 DPOR prefixes under
   object-based independence.  Each leaf is replayed and canonicalised
   as [Dpor.explore_ctx] does; the walk itself is not measured. *)
let ticket4 () =
  let module T = Ccal_objects.Ticket_lock in
  let layer = T.l0 () in
  let m = T.c_module () in
  let client i =
    Prog.bind (Prog.call "acq" [ Value.int 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ Value.int 0; Value.int i ]) (Prog.ret (Value.int i)))
  in
  let threads = List.init 4 (fun k -> k + 1, Prog.Module.link m (client (k + 1))) in
  let independence = V.Dpor.Commuting_events in
  let prefixes, _ =
    V.Dpor.walk ~independence ~engine:(Strategy.Engine.dpor ~depth:6) ~depth:6
      layer threads
  in
  words_per_move (fun () ->
      List.fold_left
        (fun moves p ->
          let o =
            Game.run
              (Game.config layer threads (Sched.of_trace ~tag:"dpor" p))
          in
          ignore (V.Dpor.canonical_log o.Game.log);
          moves + o.Game.steps)
        0 prefixes)

(* The exhaustive oracle of the oracle-llock5 workload: atomic Llock,
   five lock clients, every one of the 5^6 depth-6 trace schedules.
   Most moves follow a trace pick, and 40% of Llock calls are blocked
   retries.  The suite is built once; schedules are reusable values. *)
let exh_llock5 () =
  let layer = Ccal_objects.Lock_intf.layer "Llock" in
  let client i =
    Prog.bind (Prog.call "acq" [ Value.int 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ Value.int 0; Value.int i ]) (Prog.ret (Value.int i)))
  in
  let threads = List.init 5 (fun k -> k + 1, client (k + 1)) in
  let scheds = V.Explore.exhaustive_scheds ~tids:(List.map fst threads) ~depth:6 in
  words_per_move (fun () ->
      List.fold_left
        (fun moves s -> moves + (Game.run (Game.config layer threads s)).Game.steps)
        0 scheds)

(* Each game with its figure recorded when schedules became data (the
   play loop picks by index from a [Sched.t] variant: DESIGN.md S36) and
   the figure before that change.  The perf gate allows the recorded
   figure plus 5%. *)
type game = {
  name : string;
  run : unit -> int * float;  (** moves, minor words per move *)
  recorded : float;
  before : float;
}

let games =
  [
    { name = "nop"; run = nop; recorded = 47.2; before = 146.0 };
    { name = "dpor-ticket4"; run = ticket4; recorded = 154.8; before = 237.6 };
    { name = "exh-llock5"; run = exh_llock5; recorded = 99.4; before = 194.7 };
  ]
