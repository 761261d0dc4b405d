(* Tests for the one game scan (DESIGN.md S37): [Parallel.games] plays a
   suite and judges each finished play exactly as the sequential
   definition below does, under any step budget and jobs count; a
   cancelled game never reaches a judge; the linking games stop at the
   budget like every other game; and every checker's games run under the
   context's memory mode. *)
open Ccal_core
open Ccal_objects
open Ccal_verify
open Util

(* ---- the sequential reference ---- *)

(* What [Parallel.games] is specified to return for a fresh step budget
   [steps] (DESIGN.md S27's truncation rules): walking the suite in order
   with the cumulative cost [cum] of the judged prefix, stop exhausted
   before a schedule once [cum >= steps]; stop exhausted at a game its
   private allowance of [steps] moves cancelled; stop complete after the
   first verdict [cut] accepts; otherwise keep the verdict and add its
   cost.  The stop closure mirrors [Budget.game_stop]: polled once per
   move, it trips on the move past the allowance.  Returns the verdicts,
   whether the budget ran out, and the settled step total. *)
let reference ?steps ?max_steps ~cut ~cost layer threads judge scheds =
  let allowance = Option.value steps ~default:max_int in
  let play sched =
    let stop =
      Option.map
        (fun allowance ->
          let moves = ref 0 in
          fun () ->
            incr moves;
            !moves > allowance)
        steps
    in
    Game.run (Game.config ?max_steps ?stop layer threads sched)
  in
  let rec go cum acc = function
    | [] -> List.rev acc, false, cum
    | _ when cum >= allowance -> List.rev acc, true, cum
    | sched :: rest -> (
      let o = play sched in
      match o.Game.status with
      | Game.Cancelled -> List.rev acc, true, cum
      | _ ->
        let v = judge sched o in
        let cum = cum + cost o v in
        if cut v then List.rev (v :: acc), false, cum else go cum (v :: acc) rest)
  in
  go 0 [] scheds

(* ---- random suites over the atomic lock ---- *)

(* [Rounds k] takes and releases lock 0 [k] times; [Twice] takes it twice
   and deadlocks against itself and everyone else. *)
type client = Rounds of int | Twice

let client kind i =
  let acq = Prog.call "acq" [ vi 0 ] in
  let rec rounds k =
    if k = 0 then Prog.ret (vi i)
    else
      Prog.bind acq (fun _ ->
          Prog.seq (Prog.call "rel" [ vi 0; vi i ]) (rounds (k - 1)))
  in
  match kind with Rounds k -> rounds k | Twice -> Prog.seq acq acq

type case = {
  clients : client list;  (** thread [k + 1] runs the [k]-th client *)
  scheds : Sched.t list;
  max_steps : int option;
  steps : int option;  (** the step budget; [None] is unlimited *)
  cut_mod : int;  (** cut at the first play whose step count is 0 mod this *)
  log_cost : bool;  (** charge log length instead of game steps *)
  jobs : int;
}

let gen_case =
  let open QCheck.Gen in
  let* clients =
    list_size (1 -- 3)
      (frequency [ 5, map (fun k -> Rounds k) (0 -- 2); 1, return Twice ])
  in
  let tids = List.mapi (fun k _ -> k + 1) clients in
  let* scheds =
    list_size (0 -- 12)
      (oneof
         [
           return Sched.round_robin;
           map (fun seed -> Sched.random ~seed) (1 -- 1000);
           map Sched.of_trace (list_size (0 -- 6) (oneofl tids));
         ])
  in
  let* max_steps = oneofl [ None; Some 6; Some 40 ] in
  let* steps = frequency [ 1, return None; 4, map Option.some (0 -- 150) ] in
  let* cut_mod = oneofl [ 1_000_000; 7; 11 ] in
  let* log_cost = bool in
  let* jobs = oneofl [ 1; 2; 4; 7 ] in
  return { clients; scheds; max_steps; steps; cut_mod; log_cost; jobs }

let print_case c =
  Printf.sprintf
    "clients=[%s] scheds=[%s] max_steps=%s steps=%s cut_mod=%d log_cost=%b jobs=%d"
    (String.concat ";"
       (List.map
          (function Rounds k -> Printf.sprintf "rounds %d" k | Twice -> "twice")
          c.clients))
    (String.concat ";" (List.map Sched.name c.scheds))
    (Option.fold ~none:"-" ~some:string_of_int c.max_steps)
    (Option.fold ~none:"-" ~some:string_of_int c.steps)
    c.cut_mod c.log_cost c.jobs

(* A verdict a judge could not fake: the schedule's name and the play's
   status, steps and log. *)
let record sched (o : Game.outcome) =
  Sched.name sched, o.Game.status, o.Game.steps, o.Game.log

let prop_games_is_reference =
  qtc ~count:300 "Parallel.games = sequential reference (any budget, jobs 1/2/4/7)"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let layer = Lock_intf.layer "Llock" in
      let threads = List.mapi (fun k kind -> k + 1, client kind (k + 1)) c.clients in
      let cut (_, _, steps, _) = steps mod c.cut_mod = 0 in
      let cost (o : Game.outcome) _ =
        if c.log_cost then Log.length o.Game.log else o.Game.steps
      in
      let saw_cancelled = Atomic.make false in
      let judge sched (o : Game.outcome) =
        if o.Game.status = Game.Cancelled then Atomic.set saw_cancelled true;
        record sched o
      in
      let ctx =
        match c.steps with
        | None -> Ctx.make ~jobs:c.jobs ()
        | Some steps -> Ctx.with_budget (Budget.make ~steps ()) (Ctx.make ~jobs:c.jobs ())
      in
      let got =
        Parallel.games ~ctx ?max_steps:c.max_steps ~cut ~cost layer threads
          judge c.scheds
      in
      let want, ran_out, settled =
        reference ?steps:c.steps ?max_steps:c.max_steps ~cut ~cost layer threads
          record c.scheds
      in
      let same_verdicts = Budget.value got = want in
      let same_ending =
        (match got with Budget.Complete _ -> true | Budget.Exhausted _ -> false)
        = not ran_out
      in
      (* the token is charged only under a step budget *)
      let same_charge =
        c.steps = None || Budget.steps_used ctx.Ctx.token = settled
      in
      if Atomic.get saw_cancelled then
        QCheck.Test.fail_report "a judge saw a cancelled game";
      same_verdicts && same_ending && same_charge)

(* ---- linking games stop at the budget ---- *)

let faa_round i =
  Prog.seq_all
    [ Prog.call "faa" [ vi 0; vi 1 ]; Prog.call "faa" [ vi 0; vi 1 ];
      Prog.ret (vi i) ]

(* Thm 3.1's suite under a step allowance shorter than its first game:
   the game is cancelled mid-play, so no schedule is counted, at any
   jobs count.  (A linking game used to run to completion and count.) *)
let test_linking_shorter_than_one_game () =
  let layer = Ccal_machine.Mx86.layer () in
  let threads = [ 1, faa_round 1; 2, faa_round 2 ] in
  let scheds = Sched.default_suite ~seeds:4 in
  let first_game =
    (Game.run (Game.config ~log_switches:true layer threads (List.hd scheds)))
      .Game.steps
  in
  let steps = first_game - 1 in
  let run jobs =
    let ctx = Ctx.with_budget (Budget.make ~steps ()) (Ctx.make ~jobs ()) in
    match
      Parallel.games ~ctx ~log_switches:true ~cut:Result.is_error layer threads
        (Ccal_machine.Mx86.judge_linking layer threads)
        scheds
    with
    | Budget.Complete _ -> Alcotest.failf "jobs %d: complete under %d steps" jobs steps
    | Budget.Exhausted { spent; partial } ->
      check_int (Printf.sprintf "jobs %d: schedules counted" jobs) 0
        (List.length partial);
      check_bool "reason" true (spent.Budget.reason = `Steps);
      spent.Budget.steps_used
  in
  check_bool "the first game is longer than the allowance" true (steps > 0);
  check_int "jobs 1 and 4 spend the same" (run 1) (run 4)

(* ---- every checker's games run under ctx.memory ---- *)

(* Progress and run_all play the same TSO games (12 to 16 moves each).
   The progress scan used to drop the memory mode: its games had no
   flusher threads, so the random schedulers picked differently and the
   longest game took 21 moves, while a suite derived from the context's
   strategy comes from a walk that has them. *)
let test_progress_under_tso () =
  let ctx = Ctx.with_memory Memory.Tso Ctx.default in
  let layer = Ticket_lock.l0 ~memory:Memory.Tso () in
  let m = Ticket_lock.c_module () in
  let lock_client i =
    Prog.Module.link m
      (Prog.bind (Prog.call "acq" [ vi 0 ]) (fun _ -> Prog.call "rel" [ vi 0; vi i ]))
  in
  let threads = [ 1, lock_client 1; 2, lock_client 2 ] in
  let scheds = Sched.default_suite ~seeds:4 in
  let tso_games =
    List.map
      (fun s -> Game.run (Game.config ~memory:Memory.Tso layer threads s))
      scheds
  in
  let steps = List.map (fun (o : Game.outcome) -> o.Game.steps) in
  Alcotest.(check (list int))
    "run_all plays the TSO games" (steps tso_games)
    (steps (Budget.value (Explore.run_all_ctx ~ctx layer threads scheds)));
  match
    Budget.value
      (Progress.completes_within_ctx ~ctx ~scheds ~bound:10_000 layer threads)
  with
  | Error f -> Alcotest.failf "%a" Failure.pp f
  | Ok r ->
    check_int "runs" (List.length tso_games) r.Progress.runs;
    check_int "longest game"
      (List.fold_left max 0 (steps tso_games))
      r.Progress.max_steps_used

(* ---- golden plays ----

   Every field of every outcome — log, results, status, steps, silent
   steps and guarantee violations — over plays that reach each path of
   the play loop: trace picks that skip blocked and finished tids, the
   built-in and [Custom] schedulers, the TSO flushers, the crash thread,
   a deadlock, a stuck move, an out-of-fuel and a cancelled play, and
   plays with [log_switches] and [check_guar].  The digests were
   recorded on the play loop that rebuilt its thread table on every
   play; any change to a pick or an outcome shows here. *)

let outcome_line (o : Game.outcome) =
  let tid_values =
    String.concat ","
      (List.map (fun (i, v) -> Printf.sprintf "%d=%s" i (Value.to_string v)) o.Game.results)
  in
  let violations =
    String.concat ","
      (List.map (fun (i, l) -> Printf.sprintf "%d@%s" i (log_string l)) o.Game.guar_violations)
  in
  Format.asprintf "%s|%s|%a|%d|%d|%s" (log_string o.Game.log) tid_values
    Game.pp_status o.Game.status o.Game.steps o.Game.silent_steps violations

let plays_digest outcomes =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map outcome_line outcomes)))

let llock () = Lock_intf.layer "Llock"
let llock_threads n = List.init n (fun k -> k + 1, client (Rounds 1) (k + 1))

let ticket_threads n =
  let m = Ticket_lock.c_module () in
  List.init n (fun k -> k + 1, Prog.Module.link m (client (Rounds 1) (k + 1)))

(* A [Custom] pick that strays: a tid that is not runnable (the game
   falls back to the first runnable thread), no choice at all, or the
   last runnable thread. *)
let stray =
  Sched.Custom
    {
      name = "stray";
      pick =
        (fun ~step log ~runnable ->
          match step mod 3 with
          | 0 -> Some 99
          | 1 -> if Log.length log mod 2 = 0 then None else Some (List.hd runnable)
          | _ -> Some (List.nth runnable (List.length runnable - 1)));
    }

let builtins = Sched.round_robin :: stray :: List.init 3 (fun k -> Sched.random ~seed:(k + 1))

let sb () = Option.get (Ccal_machine.Litmus.find "SB")

let wal_threads () =
  let module W = Ccal_disk.Wal in
  let m = W.module_ () in
  List.map (fun i -> i, Prog.Module.link m (W.client i)) [ 1; 2 ]

(* A guarantee that allows each thread one event: a thread's second
   event is a violation. *)
let one_shot layer =
  {
    layer with
    Layer.rely = Rely_guarantee.always;
    guar =
      Rely_guarantee.make "one-shot" (fun i l ->
          Log.count (fun (e : Event.t) -> e.src = i) l <= 1);
  }

(* The stop closure of a play cancelled at its [k]-th poll. *)
let stop_at k =
  let polls = ref 0 in
  fun () ->
    incr polls;
    !polls >= k

(* A suite the scan can play: what [Parallel.games] takes. *)
type suite = {
  name : string;
  memory : Memory.t;
  max_steps : int option;
  log_switches : bool;
  layer : Layer.t;
  threads : (Event.tid * Prog.t) list;
  scheds : Sched.t list;
}

let golden ?(memory = Memory.Sc) ?max_steps ?(log_switches = false) name layer threads
    scheds =
  { name; memory; max_steps; log_switches; layer; threads; scheds }

let scanned () =
  let exh tids depth = Explore.exhaustive_scheds ~tids ~depth in
  [
    golden "llock 5t exhaustive depth 4" (llock ()) (llock_threads 5) (exh [ 1; 2; 3; 4; 5 ] 4);
    golden "ticket 3t built-ins" (Ticket_lock.l0 ()) (ticket_threads 3) builtins;
    golden ~memory:Memory.Tso "SB tso flushers" (Ccal_machine.Tso.machine_layer Memory.Tso)
      (sb ()).Ccal_machine.Litmus.threads
      (builtins @ exh [ 1; 2; -2; -3 ] 4);
    golden "wal crash thread" (Ccal_disk.Wal.underlay ~crashes:true ()) (wal_threads ())
      (builtins @ exh [ 1; 2; -1 ] 4);
    golden "llock deadlock" (llock ()) [ 1, client Twice 1; 2, client (Rounds 1) 2 ] builtins;
    golden "unknown primitive" (llock ())
      [ 1, client (Rounds 1) 1; 2, Prog.call "nope" [] ]
      builtins;
    golden ~max_steps:7 "ticket 3t out of fuel" (Ticket_lock.l0 ()) (ticket_threads 3) builtins;
    golden ~log_switches:true "ticket 3t switches" (Ticket_lock.l0 ()) (ticket_threads 3)
      (builtins @ exh [ 1; 2; 3 ] 3);
  ]

let run_scanned c =
  List.map
    (fun s ->
      Game.run
        (Game.config ~memory:c.memory ?max_steps:c.max_steps ~log_switches:c.log_switches
           c.layer c.threads s))
    c.scheds

(* The plays only [Game.run] reaches: a guarantee check and a stop
   closure. *)
let unscanned () =
  let llock2 = [ 1, client (Rounds 2) 1; 2, client (Rounds 2) 2 ] in
  [
    ( "check_guar",
      List.map
        (fun s -> Game.run (Game.config ~check_guar:true (one_shot (llock ())) llock2 s))
        builtins );
    ( "cancelled",
      List.map
        (fun k ->
          Game.run
            (Game.config ~stop:(stop_at k) (Ticket_lock.l0 ()) (ticket_threads 3)
               Sched.round_robin))
        [ 1; 2; 5; 9 ] );
  ]

let golden_plays =
  [
    "llock 5t exhaustive depth 4", "1dd6d4533e89fecb3c946941526f2411";
    "ticket 3t built-ins", "19bf229d522c372e6bb4637c426b73a4";
    "SB tso flushers", "31586a379b83bc27bde3a6d3b8496a88";
    "wal crash thread", "7f43bd6ca436c0227c12f4a0a82f254e";
    "llock deadlock", "6ddc265e1bbb8bd997ac9427c7615e75";
    "unknown primitive", "966a54af7e7d4ba63c48842247e5dff2";
    "ticket 3t out of fuel", "bc1876540f398d0f1bb08c9a1332cdc1";
    "ticket 3t switches", "4205da9eb72dce040ac71d7d9ac65b75";
    "check_guar", "6792f39bfe56119e5d6f81cca685c82d";
    "cancelled", "a096879d4824714bb5f7dd715c08a0b9";
  ]

let test_golden_plays () =
  let plays =
    List.map (fun c -> c.name, run_scanned c) (scanned ()) @ unscanned ()
  in
  let outcomes = List.concat_map snd plays in
  let reached what p = check_bool what true (List.exists p outcomes) in
  let status p (o : Game.outcome) = p o.Game.status in
  reached "all done" (status (( = ) Game.All_done));
  reached "a deadlock" (status (function Game.Deadlock _ -> true | _ -> false));
  reached "a stuck move" (status (function Game.Stuck _ -> true | _ -> false));
  reached "out of fuel" (status (( = ) Game.Out_of_fuel));
  reached "cancelled" (status (( = ) Game.Cancelled));
  reached "a guarantee violation" (fun o -> o.Game.guar_violations <> []);
  Alcotest.(check (list (pair string string)))
    "play digests" golden_plays
    (List.map (fun (name, os) -> name, plays_digest os) plays)

(* The scan plays each suite as [Game.run] plays each schedule, at any
   jobs count. *)
let test_games_is_run_per_schedule () =
  List.iter
    (fun c ->
      let expected = List.map outcome_line (run_scanned c) in
      List.iter
        (fun jobs ->
          let ctx = Ctx.with_memory c.memory (Ctx.make ~jobs ()) in
          let played =
            Budget.value
              (Parallel.games ~ctx ?max_steps:c.max_steps ~log_switches:c.log_switches
                 c.layer c.threads
                 (fun _ o -> outcome_line o)
                 c.scheds)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s, jobs %d" c.name jobs)
            expected played)
        [ 1; 4 ])
    (scanned ())

(* Every play starts its threads afresh: a suite of [n] plays of [t]
   threads calls [init_abs] [n * t] times, each play's [t] calls before
   its first primitive call.  (A game start is such a burst.) *)
let test_every_play_initialises_its_threads () =
  let trail = ref [] in
  let counting (layer : Layer.t) =
    {
      layer with
      Layer.prims =
        List.map
          (function
            | n, Layer.Shared f ->
              n, Layer.Shared (fun i args log -> trail := `Prim :: !trail; f i args log)
            | n, Layer.Private f ->
              n, Layer.Private (fun i args abs -> trail := `Prim :: !trail; f i args abs))
          layer.Layer.prims;
      init_abs = (fun i -> trail := `Init :: !trail; layer.Layer.init_abs i);
    }
  in
  let check name memory layer threads scheds t =
    trail := [];
    let ctx = Ctx.with_memory memory (Ctx.make ~jobs:1 ()) in
    let n =
      List.length
        (Budget.value (Parallel.games ~ctx (counting layer) threads (fun _ _ -> ()) scheds))
    in
    (* the trail as bursts: the init calls of each play, then its
       primitive calls *)
    let rec bursts acc inits = function
      | [] -> List.rev (if inits > 0 then inits :: acc else acc)
      | `Init :: rest -> bursts acc (inits + 1) rest
      | `Prim :: rest -> bursts (if inits > 0 then inits :: acc else acc) 0 rest
    in
    let b = bursts [] 0 (List.rev !trail) in
    check_int (name ^ ": plays") (List.length scheds) n;
    check_int (name ^ ": init calls") (n * t)
      (List.length (List.filter (( = ) `Init) !trail));
    Alcotest.(check (list int)) (name ^ ": one burst of t per play") (List.init n (fun _ -> t)) b
  in
  check "llock 5t" Memory.Sc (llock ()) (llock_threads 5)
    (Explore.exhaustive_scheds ~tids:[ 1; 2; 3; 4; 5 ] ~depth:3)
    5;
  check "SB tso (two flushers)" Memory.Tso (Ccal_machine.Tso.machine_layer Memory.Tso)
    (sb ()).Ccal_machine.Litmus.threads builtins 4

let suite =
  [
    prop_games_is_reference;
    tc "linking suite shorter than one game: 0 schedules, jobs 1 = 4"
      test_linking_shorter_than_one_game;
    tc "progress plays the TSO games run_all plays" test_progress_under_tso;
    tc "golden plays" test_golden_plays;
    tc "games = Game.run per schedule (jobs 1, 4)" test_games_is_run_per_schedule;
    tc "every play initialises its threads before its first call"
      test_every_play_initialises_its_threads;
  ]
