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
        | Some steps -> Ctx.make ~jobs:c.jobs ~budget:(Budget.make ~steps ()) ()
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
      let same_ending = Budget.is_complete got = not ran_out in
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
    let ctx = Ctx.make ~jobs ~budget:(Budget.make ~steps ()) () in
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
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    check_int "runs" (List.length tso_games) r.Progress.runs;
    check_int "longest game"
      (List.fold_left max 0 (steps tso_games))
      r.Progress.max_steps_used

let suite =
  [
    prop_games_is_reference;
    tc "linking suite shorter than one game: 0 schedules, jobs 1 = 4"
      test_linking_shorter_than_one_game;
    tc "progress plays the TSO games run_all plays" test_progress_under_tso;
  ]
