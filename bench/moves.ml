(* Minor words per move of four fixed games (DESIGN.md S35): what a play
   move costs beyond its events; and minor words per play of a suite
   whose threads return at once: what a play costs beyond its moves.  Allocation is deterministic for a given
   build, so the figures are exact counts, not samples; the perf-gate test
   bounds each, and [main.exe --only moves] records them in
   BENCH_moves.json.  Shared by the bench and the test suite (test/dune
   copies this file). *)
open Ccal_core
module V = Ccal_verify

(* Minor words allocated by [f], per move (or play) it reports.  One
   unmeasured run first, so per-domain scratch buffers already exist. *)
let words_per_move f =
  ignore (f ());
  let before = Gc.minor_words () in
  let moves = f () in
  let words = Gc.minor_words () -. before in
  moves, words /. float_of_int moves

(* A one-primitive layer whose only primitive appends one event and reads
   nothing. *)
let nop_layer () =
  Layer.make "Lnop" [ Layer.event_prim "nop" (fun _ _ _ -> Ok Value.unit) ]

let play_round_robin layer threads =
  words_per_move (fun () ->
      (Game.run (Game.config layer threads Sched.round_robin)).Game.steps)

(* Four threads calling nop 250 times each, round robin. *)
let nop () =
  let rec calls k =
    if k = 0 then Prog.ret_unit else Prog.seq (Prog.call "nop" []) (calls (k - 1))
  in
  play_round_robin (nop_layer ()) (List.init 4 (fun k -> k + 1, calls 250))

(* The same layer, each of the four threads a [Prog.seq_all] of [calls]
   nop calls: what a move costs must not grow with the program's length
   (DESIGN.md S35, program shape). *)
let seq_nop calls =
  let prog = Prog.seq_all (List.init calls (fun _ -> Prog.call "nop" [])) in
  play_round_robin (nop_layer ()) (List.init 4 (fun k -> k + 1, prog))

(* The leaves of the dpor-ticket4 workload: the ticket lock's C module
   over L0, four lock clients, the depth-6 DPOR prefixes under
   object-based independence.  Each leaf is replayed and keyed
   as [Dpor.explore_ctx] does, against one table; the walk itself is
   not measured. *)
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
  let table = Game.table ~memory:Memory.Sc layer threads in
  let prefixes, _ =
    V.Dpor.walk ~independence ~engine:(Strategy.Engine.dpor ~depth:6)
      table
  in
  words_per_move (fun () ->
      List.fold_left
        (fun moves p ->
          let o = Game.play table (Sched.of_trace ~tag:"dpor" p) in
          ignore (V.Dpor.trace_key o.Game.log);
          moves + o.Game.steps)
        0 prefixes)

(* The exhaustive oracle of the oracle-llock5 workload: atomic Llock,
   five lock clients, every one of the 5^6 depth-6 trace schedules.
   Most moves follow a trace pick, and 40% of Llock calls are blocked
   retries.  The suite and its table are built once; schedules are
   reusable values. *)
let exh_llock5 () =
  let layer = Ccal_objects.Lock_intf.layer "Llock" in
  let client i =
    Prog.bind (Prog.call "acq" [ Value.int 0 ]) (fun _ ->
        Prog.seq (Prog.call "rel" [ Value.int 0; Value.int i ]) (Prog.ret (Value.int i)))
  in
  let threads = List.init 5 (fun k -> k + 1, client (k + 1)) in
  let scheds = V.Explore.exhaustive_scheds ~tids:(List.map fst threads) ~depth:6 in
  let table = Game.table ~memory:Memory.Sc layer threads in
  words_per_move (fun () ->
      List.fold_left (fun moves s -> moves + (Game.play table s).Game.steps) 0 scheds)

(* Five threads that return at once, over the same 5^6 trace schedules:
   what a play costs beyond its moves — starting its threads, its state,
   its outcome — per play, against one table. *)
let ret5 () =
  let threads = List.init 5 (fun k -> k + 1, Prog.ret (Value.int (k + 1))) in
  let table = Game.table ~memory:Memory.Sc (nop_layer ()) threads in
  let scheds = V.Explore.exhaustive_scheds ~tids:(List.map fst threads) ~depth:6 in
  words_per_move (fun () ->
      List.iter (fun s -> ignore (Game.play table s)) scheds;
      List.length scheds)

(* Each game with its figure recorded when schedules became data (the
   play loop picks by index from a [Sched.t] variant: DESIGN.md S36) and
   the figure before that change; dpor-ticket4's figure was lowered again
   when leaves came to be keyed instead of canonicalised (S34), and when
   [Event.hash] stopped allocating a tuple.  seq-nop's figures are those
   of [Prog.seq_all] nested to the right and, before, to the left (S35).
   Every move figure was lowered again when a move stopped allocating
   its interpreter's closure and a play its thread slots, and the suites
   came to be played against one game table (S36); ret5's [before] is
   a play that rebuilt its table.  The perf gate allows the recorded
   figure plus 5%. *)
type game = {
  name : string;
  per : string;  (** what [run] counts: ["move"], or ["play"] *)
  run : unit -> int * float;  (** moves (or plays), minor words per each *)
  recorded : float;
  before : float;
}

let games =
  [
    { name = "nop"; per = "move"; run = nop; recorded = 38.1; before = 146.0 };
    { name = "dpor-ticket4"; per = "move"; run = ticket4; recorded = 107.7; before = 237.6 };
    { name = "exh-llock5"; per = "move"; run = exh_llock5; recorded = 72.1; before = 194.7 };
    { name = "seq-nop"; per = "move"; run = (fun () -> seq_nop 2_000); recorded = 55.0;
      before = 12_023.0 };
    { name = "ret5"; per = "play"; run = ret5; recorded = 150.0; before = 403.0 };
  ]
